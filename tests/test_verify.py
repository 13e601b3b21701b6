"""The verify suite's contract: its check IDs, statuses and details, and how
a check's failure or refusal reaches the report."""

import json
from fractions import Fraction

import pytest

from glcensus import asympt, cli, oracle, tasks, verify

# (id, level, full-level detail); every full-level status is "pass"
CHECKS = [
    ("census.table1", "fast", "census polynomials match the published table for n=1..6"),
    ("census.phi-counts", "fast", "class counts match for n=0..12"),
    ("census.b-goldens", "fast", "b_n golden values match for n=0..8"),
    ("series.fbar-vs-class-sum", "fast",
     "exp-form coefficients equal the class sums and the recurrence-built b_n for n<=12"),
    ("series.f1-forms", "fast", "exp = sum exactly; both match the product form to u^40"),
    ("series.f2-forms", "fast", "exp form matches the product form to u^40"),
    ("census.monotonic", "fast", "q^n b_n strictly increases for n<=12, q in {2,3,4,5}"),
    ("census.stabilized-prefix", "fast", "top coefficients stabilise as predicted for n<=10"),
    ("limit.l2-bracket", "fast", "l(2) in [278.984776098226, 278.984913805450]"),
    ("limit.estimates", "fast", "all stated estimates hold for q in {2,3,4,5,7}"),
    ("limit.convergence", "fast", "q^n b_n stays below hi(l(q)) and gaps shrink, q in {2,3}"),
    ("exactalg.random-eval", "fast", "25 randomised evaluation trials agree (seed=0)"),
    ("oracle.wall-bound", "full", "measured cyclic proportions satisfy the Wall-type bound"),
    ("oracle.centralizer-count", "full",
     "centralizer counts match the census exactly when q > n, strictly below otherwise"),
    ("oracle.q-equals-n", "full",
     "GL_3(3): 1067 distinct centralizers; 1067-element seed verified pairwise"),
    ("oracle.structural", "full",
     "centralizer, normalizer and block-minimal-polynomial identities hold"),
    ("clique.omega", "full", "clique numbers certified and equal to goldens"),
]


def outcomes(report):
    return [(c.check_id, c.status, c.detail) for c in report.checks]


def test_full_level_passes_every_check_with_its_detail():
    report = verify.verify_all("full")
    assert outcomes(report) == [(cid, verify.PASS, detail) for cid, _, detail in CHECKS]
    assert report.exit_code == 0
    assert report.to_json()["checks"][0].keys() == {"id", "status", "detail", "seconds"}


def test_fast_level_skips_the_five_full_level_checks():
    report = verify.verify_all("fast")
    assert outcomes(report) == [
        (cid, verify.PASS, detail) if level == "fast" else (cid, verify.SKIPPED, "full level only")
        for cid, level, detail in CHECKS]
    assert sum(c.status == verify.SKIPPED for c in report.checks) == 5
    assert all(c.seconds == 0.0 for c in report.checks if c.status == verify.SKIPPED)


def test_scaled_census_values_stay_below_the_lower_end_of_l():
    for q in (2, 3):
        lo = asympt.l_of_q(q, 30).lo
        values = asympt.scaled_coefficients(q, 12)
        assert all(v < lo for v in values), q
        assert all(a < b for a, b in zip(values, values[1:])), q


def test_check_convergence_fails_on_swapped_values(monkeypatch):
    original = asympt.scaled_coefficients

    def swapped(q, upto):
        values = original(q, upto)
        values[-2], values[-1] = values[-1], values[-2]
        return values

    monkeypatch.setattr(asympt, "scaled_coefficients", swapped)
    assert verify.check_convergence() == (
        verify.FAIL, "q=2: gap upper bounds not strictly decreasing; "
        "q=3: gap upper bounds not strictly decreasing")


def test_check_convergence_names_a_value_above_hi(monkeypatch):
    original = asympt.scaled_coefficients
    monkeypatch.setattr(asympt, "scaled_coefficients",
                        lambda q, upto: original(q, upto)[:-1] + [Fraction(10**6)])
    assert verify.check_convergence() == (
        verify.FAIL, "q=2, n=12: value not below hi; q=3, n=12: value not below hi")


def test_a_crashed_check_is_a_failed_check(monkeypatch):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "check_monotonic", crash)
    report = verify.verify_all("fast")
    monotonic = next(c for c in report.checks if c.check_id == "census.monotonic")
    assert (monotonic.status, monotonic.detail) == (verify.FAIL, "exception: RuntimeError('boom')")
    assert report.exit_code == 1


def test_a_budget_refused_by_a_check_refuses_the_whole_run():
    with pytest.raises(oracle.BudgetError, match="exceeds the enumeration budget"):
        verify.verify_all("full", budget=oracle.Budget(elements=1))


FULL_CHECKS = {"check_wall_bound", "check_centralizer_count", "check_q_equals_n",
               "check_structural", "check_omega"}


def test_a_full_level_refusal_runs_no_fast_check(monkeypatch):
    fast = {name for name in vars(verify) if name.startswith("check_")} - FULL_CHECKS
    assert len(fast) == 12
    for name in fast:
        monkeypatch.setattr(verify, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    with pytest.raises(oracle.BudgetError):
        verify.verify_all(level="full", budget=oracle.Budget(elements=1))


def test_the_tasks_verdicts_reach_the_cli_and_the_structural_check(monkeypatch, capsys):
    # a wrong normalizer order and a witness with a large, cyclic centralizer
    monkeypatch.setattr(oracle, "normalizer_of_set", lambda cset, budget=None: 0)
    monkeypatch.setattr(oracle, "noncyclic_centralizer_witness",
                        lambda: oracle.FqMatrix(oracle.get_field(2), tuple(
                            tuple(int(i == j) for j in range(4)) for i in range(4))))
    assert tasks.regular_unipotent_task(2, 2) == (2, 2, 0, 2, False)
    assert tasks.remark_matrix_task() == (20160, 16, 17352, False)  # every cyclic element
    for task in ("regular-unipotent", "remark-matrix"):
        assert cli.main(["oracle", "--n", "4" if task == "remark-matrix" else "2", "--q", "2",
                         "--task", task]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["as_expected"], payload["status"]) == (False, "fail")
    status, detail = verify.check_structural()
    assert status == verify.FAIL
    assert detail.split("; ") == [f"regular unipotent ({n},{q}): normalizer order 0"
                                  for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]] + [
        "witness matrix: order 20160, cyclic members 17352"]
