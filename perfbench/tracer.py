"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each public function listed in ``SITES`` with a
wrapper that records a span, and ``Tracer.restore`` puts every original
object back.  Names that a module imported from another module are patched
at each importing module too, or calls through them would go unrecorded.

A span's layer is the prefix of its key.  Open spans form a stack, so each
span knows its parent: a layer's self time is the duration of its spans
minus the time of their direct children.  ``<key>_s`` counts only outermost
spans of that key, so a function that re-enters itself is not counted twice.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from glcensus import asympt, census, clique, exactalg, oracle, qseries


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % p for p in range(2, int(q**0.5) + 1))


def _field_kind(q: int) -> str:
    return "prime" if _is_prime(q) else "ext"


def _census_key(args, kwargs):
    return f"oracle.census_{_field_kind(_arg(args, kwargs, 1, 'q'))}"


def _normalizer_key(args, kwargs):
    return f"oracle.normalizer_{_field_kind(_arg(args, kwargs, 0, 'cset').q)}"


def _factor_key(name):
    def key(args, kwargs):
        form = _arg(args, kwargs, 1, "form")
        return "qseries.product_forms" if form == qseries.FORM_PRODUCT else f"qseries.{name}"
    return key


# (owner, attribute, span key or key function of the call's arguments)
SITES = [
    (exactalg, "poly_gcd", "exactalg.poly_gcd"),
    (exactalg.IntPolynomial, "divmod", "exactalg.divmod"),
    (exactalg.RationalFunction, "__add__", "exactalg.rf_add"),
    (exactalg.RationalFunction, "__sub__", "exactalg.rf_sub"),
    (exactalg.RationalFunction, "__mul__", "exactalg.rf_mul"),
    (exactalg, "make_rf", "exactalg.make_rf"),
    (census, "make_rf", "exactalg.make_rf"),
    (qseries, "make_rf", "exactalg.make_rf"),
    (census, "enumerate_phi", "census.enumerate_phi"),
    (census, "b_coefficient", "census.b_coefficient"),
    (asympt, "b_coefficient", "census.b_coefficient"),
    (census, "a_polynomial", "census.a_polynomial"),
    (clique, "a_polynomial", "census.a_polynomial"),
    (census, "omega_closed", "census.omega_closed"),
    (clique, "omega_closed", "census.omega_closed"),
    (census, "gl_order", "census.gl_order"),
    (oracle, "gl_order", "census.gl_order"),
    (qseries, "build_fbar", "qseries.build_fbar"),
    (qseries, "build_f1", _factor_key("build_f1")),
    (qseries, "build_f2", _factor_key("build_f2")),
    (qseries, "ps_mul", "qseries.ps_mul"),
    (asympt, "l_of_q", "asympt.l_of_q"),
    (asympt, "check_estimates", "asympt.check_estimates"),
    (oracle, "gl_group", "oracle.gl_group"),
    (clique, "gl_group", "oracle.gl_group"),
    (oracle.GLGroup, "cyclic_flags", "oracle.cyclic_flags"),
    (oracle.GLGroup, "commuting_indices", "oracle.commuting_indices"),
    (oracle, "count_cyclic_centralizers", _census_key),
    (clique, "count_cyclic_centralizers", _census_key),
    (oracle, "centralizer", "oracle.centralizer"),
    (oracle, "normalizer_of_set", _normalizer_key),
    (clique, "seed_clique", "clique.seed_clique"),
    (clique, "build_graph", "clique.build_graph"),
    (clique, "max_clique", "clique.max_clique"),
    (clique, "covering_upper_bound", "clique.covering_upper_bound"),
]

LAYERS = ("exactalg", "census", "qseries", "asympt", "oracle", "clique")


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._open: Counter = Counter()  # open spans per key
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._seen_n: set = set()
        self._seen_groups: set = set()
        self._saved: list = []

    def install(self) -> None:
        for owner, attr, key in SITES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, key))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, key):
        stack, open_, clock = self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            k = key if isinstance(key, str) else key(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            open_[k] += 1
            start = clock()
            outcome = k
            try:
                result = fn(*args, **kwargs)
            except oracle.BudgetError:
                if k.startswith("oracle.census_"):
                    outcome = "oracle.refusal"
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                open_[k] -= 1
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[k.partition(".")[0]] += elapsed - frame[0]
                self.calls[k] += 1
                if not open_[k]:
                    self.total_s[outcome] += elapsed
            self._observe(k, args, result)
            return result

        return traced

    def _observe(self, key: str, args, result) -> None:
        """Work counts read from call results at the layer boundary."""
        if key == "census.enumerate_phi" and args[0] not in self._seen_n:
            self._seen_n.add(args[0])
            self.counts["census.labels"] += len(result)
        elif key == "oracle.gl_group" and id(result) not in self._seen_groups:
            self._seen_groups.add(id(result))
            self.counts["oracle.elements"] += result.order
        elif key == "asympt.l_of_q":
            bits = max(x.bit_length() for end in (result.lo, result.hi)
                       for x in (end.numerator, end.denominator))
            self.counts["asympt.endpoint_bits"] = max(self.counts["asympt.endpoint_bits"], bits)
        elif key == "clique.max_clique":
            self.counts["clique.bb_nodes"] += result.steps

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, zero where the workload made no such call."""
        t, c = self.total_s, self.calls
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "exactalg.poly_gcd_calls": c["exactalg.poly_gcd"],
            "exactalg.poly_gcd_s": t["exactalg.poly_gcd"],
            "exactalg.divmod_calls": c["exactalg.divmod"],
            "exactalg.divmod_s": t["exactalg.divmod"],
            "exactalg.rf_ops": c["exactalg.rf_add"] + c["exactalg.rf_sub"] + c["exactalg.rf_mul"],
            "census.labels": self.counts["census.labels"],
            "census.enumerate_phi_s": t["census.enumerate_phi"],
            "census.b_coefficient_s": t["census.b_coefficient"],
            "census.a_polynomial_s": t["census.a_polynomial"],
            "qseries.build_fbar_s": t["qseries.build_fbar"],
            "qseries.product_forms_s": t["qseries.product_forms"],
            "qseries.ps_mul_calls": c["qseries.ps_mul"],
            "asympt.l_of_q_s": t["asympt.l_of_q"],
            "asympt.check_estimates_s": t["asympt.check_estimates"],
            "asympt.endpoint_bits": self.counts["asympt.endpoint_bits"],
            "oracle.elements": self.counts["oracle.elements"],
            "oracle.gl_group_s": t["oracle.gl_group"],
            "oracle.cyclic_flags_s": t["oracle.cyclic_flags"],
            "oracle.commuting_scans": c["oracle.commuting_indices"],
            "oracle.census_prime_s": t["oracle.census_prime"],
            "oracle.census_ext_s": t["oracle.census_ext"],
            "oracle.normalizer_prime_s": t["oracle.normalizer_prime"],
            "oracle.normalizer_ext_s": t["oracle.normalizer_ext"],
            "oracle.refusal_s": t["oracle.refusal"],
            "clique.seed_clique_s": t["clique.seed_clique"],
            "clique.build_graph_s": t["clique.build_graph"],
            "clique.max_clique_s": t["clique.max_clique"],
            "clique.bb_nodes": self.counts["clique.bb_nodes"],
        })
        return out
