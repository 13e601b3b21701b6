"""One-shot verification suite with golden files.

Each check compares freshly computed values against either a frozen golden
file or an internal cross-route identity, and reports pass/fail with the
exact values involved.  The fast level covers the symbolic side (census,
series, limits) in seconds; the full level adds the group-level oracle and
clique instances, dominated by the GL_3(3) centralizer census.

Exit-code contract: 0 exactly when no check reports 'fail' (skipped and
inconclusive checks do not fail the run, but are visible in the report).
"""

from __future__ import annotations

import importlib.resources
import json
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from glcensus import asympt, census, clique, exactalg, oracle, qseries

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
SKIPPED = "skipped"

@dataclass(frozen=True)
class CheckOutcome:
    check_id: str
    status: str
    detail: str
    seconds: float


@dataclass
class RunReport:
    command: str
    level: str
    seed: int
    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if any(c.status == FAIL for c in self.checks) else 0

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "level": self.level,
            "seed": self.seed,
            "checks": [
                {
                    "id": c.check_id,
                    "status": c.status,
                    "detail": c.detail,
                    "seconds": round(c.seconds, 3),
                }
                for c in self.checks
            ],
            "exit_code": self.exit_code,
        }


def load_golden(name: str, golden_dir: str | Path | None = None) -> dict:
    if golden_dir is not None:
        return json.loads((Path(golden_dir) / name).read_text())
    ref = importlib.resources.files("glcensus") / "goldens" / name
    return json.loads(ref.read_text())


def _fail_list(bad: list[str]) -> tuple[str, str]:
    return (FAIL, "; ".join(bad)) if bad else (PASS, "")


# --- fast checks -------------------------------------------------------------


def check_table1(golden: dict) -> tuple[str, str]:
    bad = []
    for key, coeffs in sorted(golden.items(), key=lambda kv: int(kv[0])):
        n = int(key)
        computed = census.a_polynomial(n)
        expected = exactalg.poly_from_json(coeffs)
        if computed != expected:
            bad.append(f"n={n}: computed {computed} != golden {expected}")
    status, detail = _fail_list(bad)
    return status, detail or "census polynomials match the published table for n=1..6"


def check_phi_counts(golden: dict) -> tuple[str, str]:
    bad = [
        f"n={key}: {census.phi_count(int(key))} != {expect}"
        for key, expect in golden.items()
        if census.phi_count(int(key)) != expect
    ]
    status, detail = _fail_list(bad)
    return status, detail or f"class counts match for n=0..{max(int(k) for k in golden)}"


def check_b_goldens(golden: dict) -> tuple[str, str]:
    bad = []
    for key, data in golden.items():
        n = int(key)
        if census.b_coefficient(n) != exactalg.rf_from_json(data):
            bad.append(f"n={n}: b_n mismatch")
    status, detail = _fail_list(bad)
    return status, detail or f"b_n golden values match for n=0..{max(int(k) for k in golden)}"


def check_fbar_vs_class_sum() -> tuple[str, str]:
    fbar = qseries.build_fbar(12)
    bad = [
        f"t^{n}" for n in range(13)
        if not fbar[n] == census.class_sum(n) == census.b_coefficient(n)
    ]
    status, detail = _fail_list(bad)
    return status, detail or (
        "exp-form coefficients equal the class sums and the recurrence-built b_n for n<=12"
    )


def check_f1_forms() -> tuple[str, str]:
    exp_form = qseries.build_f1(12, qseries.FORM_EXP)
    sum_form = qseries.build_f1(12, qseries.FORM_SUM)
    if exp_form.coeffs != sum_form.coeffs:
        return FAIL, "exp and sum forms disagree"
    prod_form = qseries.build_f1(12, qseries.FORM_PRODUCT, u_order=40)
    for n in range(13):
        if qseries.rf_to_useries(exp_form[n], 40) != prod_form[n]:
            return FAIL, f"u-expansion disagrees with the product form at t^{n}"
    return PASS, "exp = sum exactly; both match the product form to u^40"


def check_f2_forms() -> tuple[str, str]:
    exp_form = qseries.build_f2(12, qseries.FORM_EXP)
    prod_form = qseries.build_f2(12, qseries.FORM_PRODUCT, u_order=40)
    for n in range(13):
        if qseries.rf_to_useries(exp_form[n], 40) != prod_form[n]:
            return FAIL, f"u-expansion disagrees with the product form at t^{n}"
    return PASS, "exp form matches the product form to u^40"


def check_monotonic() -> tuple[str, str]:
    bad = []
    for q in (2, 3, 4, 5):
        values = [census.b_coefficient(n).eval(q) * Fraction(q) ** n for n in range(14)]
        for n in range(13):
            if not values[n] < values[n + 1]:
                bad.append(f"q={q}, n={n}")
    status, detail = _fail_list(bad)
    return status, detail or "q^n b_n strictly increases for n<=12, q in {2,3,4,5}"


def check_stabilized_prefix() -> tuple[str, str]:
    bad = []
    for n in range(2, 11):
        top = list(reversed(census.a_polynomial(n).coeffs))[: n // 2]
        if top != census.stabilized_prefix(n):
            bad.append(f"n={n}")
    status, detail = _fail_list(bad)
    return status, detail or "top coefficients stabilise as predicted for n<=10"


def check_l2_bracket() -> tuple[str, str]:
    iv = asympt.l_of_q(2, 30)
    lo_ok = iv.lo > Fraction("278.98")
    hi_ok = iv.hi < Fraction("395.0005")
    detail = (
        f"l(2) in [{asympt.fraction_to_decimal(iv.lo)}, "
        f"{asympt.fraction_to_decimal(iv.hi, round_up=True)}]"
    )
    return (PASS if lo_ok and hi_ok else FAIL), detail


def check_estimates() -> tuple[str, str]:
    bad = []
    inconclusive = []
    for q in (2, 3, 4, 5, 7):
        report = asympt.check_estimates(q, 30)
        for key, verdict in report.verdicts.items():
            if verdict == asympt.FAILS:
                bad.append(f"q={q} ({key})")
            elif verdict == asympt.INCONCLUSIVE:
                inconclusive.append(f"q={q} ({key})")
    if bad:
        return FAIL, "; ".join(bad)
    if inconclusive:
        return INCONCLUSIVE, "; ".join(inconclusive)
    return PASS, "all stated estimates hold for q in {2,3,4,5,7}"


def check_convergence() -> tuple[str, str]:
    bad = []
    for q in (2, 3):
        hi = asympt.l_of_q(q, 30).hi
        gaps = asympt.convergence_report(q, 12)
        for n, gap in gaps:
            value = census.b_coefficient(n).eval(q) * Fraction(q) ** n
            if not value < hi:
                bad.append(f"q={q}, n={n}: value not below hi")
        uppers = [gap.hi for _, gap in gaps]
        if not all(a > b for a, b in zip(uppers, uppers[1:])):
            bad.append(f"q={q}: gap upper bounds not strictly decreasing")
    status, detail = _fail_list(bad)
    return status, detail or "q^n b_n stays below hi(l(q)) and gaps shrink, q in {2,3}"


def check_random_eval(seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    P = exactalg.IntPolynomial.from_coeffs
    for trial in range(25):
        a = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        b = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
        c = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        d = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
        x = exactalg.make_rf(a, b)
        y = exactalg.make_rf(c, d)
        q0 = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        for op in (operator.add, operator.sub, operator.mul):
            try:
                lhs = op(x, y).eval(q0)
                rhs = op(x.eval(q0), y.eval(q0))
            except exactalg.PoleError:
                continue
            if lhs != rhs:
                return FAIL, f"trial {trial}: {op.__name__} disagrees at q0={q0}"
    return PASS, f"25 randomised evaluation trials agree (seed={seed})"


# --- full checks -------------------------------------------------------------

WALL_INSTANCES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]


def check_wall_bound(budget=None) -> tuple[str, str]:
    bad = []
    for n, q in WALL_INSTANCES:
        c, _, holds = oracle.wall_bound_task(n, q, budget)
        if not holds:
            bad.append(f"(n,q)=({n},{q}): proportion {c} violates the bound")
    status, detail = _fail_list(bad)
    return status, detail or "measured cyclic proportions satisfy the Wall-type bound"


def check_centralizer_count(budget=None) -> tuple[str, str]:
    bad = []
    for n, q in [(2, 3), (2, 4), (2, 5), (2, 2), (3, 2), (3, 3)]:
        count, value, as_expected = oracle.centralizer_count_task(n, q, budget)
        if not as_expected:
            bad.append(f"({n},{q}): {count} != {value}" if q > n
                       else f"({n},{q}): {count} not strictly below {value}")
    status, detail = _fail_list(bad)
    return status, detail or "centralizer counts match the census exactly when q > n, strictly below otherwise"


def check_q_equals_n(budget=None) -> tuple[str, str]:
    count, _ = oracle.count_cyclic_centralizers(3, 3, budget)
    closed = census.omega_closed(3, 3)
    if count != 1067 or closed != 1067:
        return FAIL, f"count={count}, closed={closed}, expected 1067"
    seed = clique.seed_clique(3, 3, budget)
    if len(seed) != 1067:
        return FAIL, f"seed size {len(seed)} != 1067"
    return PASS, "GL_3(3): 1067 distinct centralizers; 1067-element seed verified pairwise"


def check_structural(budget=None) -> tuple[str, str]:
    bad = []
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        order, expect_c, norm, expect_n = oracle.regular_unipotent_task(n, q, budget)
        if order != expect_c:
            bad.append(f"regular unipotent ({n},{q}): centralizer order {order}")
        if norm != expect_n:
            bad.append(f"regular unipotent ({n},{q}): normalizer order {norm}")
    for q in (2, 3):
        for f, m in oracle.jm_check_task(q)[1]:
            bad.append(f"block ({len(f) - 1},{m}) over F_{q}: minimal polynomial mismatch")
    order, cyclic_members = oracle.remark_matrix_task(budget)
    if order != 16 or cyclic_members != 0:
        bad.append(f"witness matrix: order {order}, cyclic members {cyclic_members}")
    status, detail = _fail_list(bad)
    return status, detail or "centralizer, normalizer and block-minimal-polynomial identities hold"


def check_omega(golden: dict, budget=None, solver_budget=None) -> tuple[str, str]:
    bad = []
    for n, q in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]:
        result, _ = clique.compute_omega(n, q, budget, solver_budget)
        expect = golden[f"{n},{q}"]
        if not result.optimal:
            bad.append(f"({n},{q}): not certified optimal")
        elif result.size != expect:
            bad.append(f"({n},{q}): omega {result.size} != golden {expect}")
    status, detail = _fail_list(bad)
    return status, detail or "clique numbers certified and equal to goldens"


# --- driver ------------------------------------------------------------------


def verify_all(level: str = "fast", seed: int = 0, golden_dir=None,
               budget=None, solver_budget=None, command: str = "verify") -> RunReport:
    if level not in ("fast", "full"):
        raise ValueError("level must be fast or full")
    report = RunReport(command=command, level=level, seed=seed)
    # the golden files are read before any check runs, so a golden_dir that
    # cannot be read raises OSError instead of failing the checks that use it
    names = ["table1.json", "phi_counts.json", "b_rationals.json"]
    if level == "full":
        names.append("omega_known.json")
    golden = {name: load_golden(name, golden_dir) for name in names}

    # every check once, in report order: (id, level, runner); the fast level
    # reports the full-level checks as skipped
    checks = [
        ("census.table1", "fast", lambda: check_table1(golden["table1.json"])),
        ("census.phi-counts", "fast", lambda: check_phi_counts(golden["phi_counts.json"])),
        ("census.b-goldens", "fast", lambda: check_b_goldens(golden["b_rationals.json"])),
        ("series.fbar-vs-class-sum", "fast", check_fbar_vs_class_sum),
        ("series.f1-forms", "fast", check_f1_forms),
        ("series.f2-forms", "fast", check_f2_forms),
        ("census.monotonic", "fast", check_monotonic),
        ("census.stabilized-prefix", "fast", check_stabilized_prefix),
        ("limit.l2-bracket", "fast", check_l2_bracket),
        ("limit.estimates", "fast", check_estimates),
        ("limit.convergence", "fast", check_convergence),
        ("exactalg.random-eval", "fast", lambda: check_random_eval(seed)),
        ("oracle.wall-bound", "full", lambda: check_wall_bound(budget)),
        ("oracle.centralizer-count", "full", lambda: check_centralizer_count(budget)),
        ("oracle.q-equals-n", "full", lambda: check_q_equals_n(budget)),
        ("oracle.structural", "full", lambda: check_structural(budget)),
        ("clique.omega", "full", lambda: check_omega(golden["omega_known.json"], budget, solver_budget)),
    ]

    for check_id, check_level, run in checks:
        if level == "fast" and check_level == "full":
            report.checks.append(CheckOutcome(check_id, SKIPPED, "full level only", 0.0))
            continue
        start = time.monotonic()
        try:
            status, detail = run()
        except Exception as exc:  # a crashed check is a failed check
            status, detail = FAIL, f"exception: {exc!r}"
        report.checks.append(CheckOutcome(check_id, status, detail, time.monotonic() - start))
    return report
