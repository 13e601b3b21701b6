"""The benchmark's workloads: fixed job lists over the public glcensus API.

Each job calls one or more public functions of one layer and returns a
JSON-serialisable canonical form of the exact result.  The runner hashes that
form with SHA-256 and compares it with ``reference.json``.  A job marked
``refuses`` passes only when it raises ``BudgetError``.

The seed picks evaluation points and sampled centralizers from fixed pools,
never problem sizes; the reference holds a digest for every pool member.
``Sampler(None)`` selects every pool member, which is how the reference
generator reaches them all.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from glcensus import asympt, census, clique, exactalg, oracle, qseries

REFUSED = "raises BudgetError"


@dataclass(frozen=True)
class Job:
    """One call into the library; ``run`` reads and writes a shared context."""

    id: str
    run: Callable[[dict], object]
    refuses: bool = False


class Sampler:
    """Seeded choice from a fixed pool; with no seed, the whole pool."""

    def __init__(self, seed: str | None):
        self._rng = None if seed is None else random.Random(seed)

    def sample(self, pool, k: int) -> list:
        pool = list(pool)
        return pool if self._rng is None else self._rng.sample(pool, k)


def digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(job: Job, ctx: dict) -> str:
    """The job's outcome: its output digest, or REFUSED for a refusal job.

    Only refusal jobs may raise, and only ``BudgetError``; any other
    exception propagates to the caller, which counts it as a failure.
    """
    if not job.refuses:
        return digest(job.run(ctx))
    try:
        value = job.run(ctx)
    except oracle.BudgetError:
        return REFUSED
    return digest(value)


# --- canonical forms ------------------------------------------------------------
# Big integers go out in hex: decimal conversion of the 10^5-digit interval
# endpoints is quadratic and refused by the interpreter's digit limit.


def _frac(x) -> list[str]:
    return [format(x.numerator, "x"), format(x.denominator, "x")]


def _series(ps: qseries.PowerSeries) -> list:
    if isinstance(ps.ring, qseries.USeriesRing):
        return [[str(x) for x in c.coeffs] for c in ps.coeffs]
    return [exactalg.rf_to_json(c) for c in ps.coeffs]


def _interval(iv: asympt.RatInterval) -> list:
    return [_frac(iv.lo), _frac(iv.hi)]


# --- census-deep ------------------------------------------------------------------

# Prime powers above every census band, for omega_closed(n, q) with q > n.
OMEGA_Q_POOL = (17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64)
CENSUS_BAND = {"full": range(13, 16), "smoke": range(5, 7)}


def census_deep(scale: str, sampler: Sampler) -> list[Job]:
    jobs = []
    for n in CENSUS_BAND[scale]:
        jobs += [
            Job(f"census.enumerate_phi({n})",
                lambda ctx, n=n: [[list(k), c] for mu in census.enumerate_phi(n) for k, c in mu.items]),
            Job(f"census.b_coefficient({n})",
                lambda ctx, n=n: exactalg.rf_to_json(census.b_coefficient(n))),
            Job(f"census.a_polynomial({n})",
                lambda ctx, n=n: exactalg.poly_to_json(census.a_polynomial(n))),
        ]
        for q in sampler.sample(OMEGA_Q_POOL, 1):
            jobs.append(Job(f"census.omega_closed({n},{q})",
                            lambda ctx, n=n, q=q: format(census.omega_closed(n, q), "x")))
    return jobs


# --- series-limits ----------------------------------------------------------------

SERIES = {
    "full": {"fbar": 12, "product": (12, 40), "l_terms": 45, "estimates": ((2, 3, 4, 5, 7), 30)},
    "smoke": {"fbar": 4, "product": (4, 10), "l_terms": 12, "estimates": ((2, 3), 12)},
}


def series_limits(scale: str, sampler: Sampler) -> list[Job]:
    s = SERIES[scale]
    order, u_order = s["product"]
    jobs = [
        Job(f"qseries.build_fbar({s['fbar']})", lambda ctx: _series(qseries.build_fbar(s["fbar"]))),
        Job(f"qseries.build_f1({order},product,{u_order})",
            lambda ctx: _series(qseries.build_f1(order, qseries.FORM_PRODUCT, u_order))),
        Job(f"qseries.build_f2({order},product,{u_order})",
            lambda ctx: _series(qseries.build_f2(order, qseries.FORM_PRODUCT, u_order))),
    ]
    for q in (2, 3):
        jobs.append(Job(f"asympt.l_of_q({q},{s['l_terms']})",
                        lambda ctx, q=q: _interval(asympt.l_of_q(q, s["l_terms"]))))
    qs, terms = s["estimates"]
    for q in qs:
        jobs.append(Job(f"asympt.check_estimates({q},{terms})",
                        lambda ctx, q=q: _estimates(asympt.check_estimates(q, terms))))
    return jobs


def _estimates(report: asympt.EstimateReport) -> dict:
    return {"verdicts": report.verdicts, "interval": _interval(report.interval)}


# --- oracle-groups ----------------------------------------------------------------

# (n, q, positions in the list of centralizer representatives, samples).  The
# position pools are spread evenly over the 1067 (GL_3(3)) and 73 (GL_2(8))
# representatives; a GL_2(8) normalizer scan costs seconds, so one is sampled.
ORACLE = {
    "full": {
        "census": ((3, 3, range(0, 1067, 67), 3), (2, 8, range(0, 73, 5), 1)),
        "clique": (2, 7),
        "refusal": (3, 4, None),
    },
    "smoke": {
        "census": ((2, 3, range(0, 13, 2), 2), (2, 4, range(0, 21, 4), 1)),
        "clique": (2, 2),
        "refusal": (2, 3, 1000),
    },
}


def oracle_groups(scale: str, sampler: Sampler) -> list[Job]:
    o = ORACLE[scale]
    jobs = []
    for n, q, pool, samples in o["census"]:
        key = f"{n},{q}"
        jobs += [
            Job(f"oracle.gl_group({key})", lambda ctx, n=n, q=q: _group(ctx, n, q)),
            Job(f"oracle.cyclic_flags({key})",
                lambda ctx, key=key: "".join("1" if f else "0" for f in ctx[key].cyclic_flags())),
            Job(f"oracle.count_cyclic_centralizers({key})", lambda ctx, n=n, q=q: _census(ctx, n, q)),
            Job(f"clique.covering_upper_bound({key})",
                lambda ctx, n=n, q=q: clique.covering_upper_bound(n, q)),
            Job(f"clique.seed_clique({key})", lambda ctx, n=n, q=q: list(clique.seed_clique(n, q))),
        ]
        for pos in sampler.sample(pool, samples):
            jobs.append(Job(f"oracle.normalizer_of_set({key},rep#{pos})",
                            lambda ctx, key=key, pos=pos: _normalizer(ctx, key, pos)))
    n, q = o["clique"]
    key = f"{n},{q}"
    jobs += [
        Job(f"clique.build_graph({key})", lambda ctx, n=n, q=q: _graph(ctx, n, q)),
        Job(f"clique.max_clique({key})", lambda ctx, key=key: _max_clique(ctx, key)),
    ]
    n, q, steps = o["refusal"]
    budget = None if steps is None else oracle.Budget(steps=steps)
    jobs.append(Job(f"oracle.count_cyclic_centralizers({n},{q},steps={steps})",
                    lambda ctx: oracle.count_cyclic_centralizers(n, q, budget), refuses=True))
    return jobs


def _group(ctx: dict, n: int, q: int) -> dict:
    group = ctx[f"{n},{q}"] = oracle.gl_group(n, q)
    return {"order": group.order, "mats": [M.rows for M in group.mats]}


def _census(ctx: dict, n: int, q: int) -> list:
    count, reps = oracle.count_cyclic_centralizers(n, q)
    ctx[f"reps {n},{q}"] = reps
    return [count, list(reps)]


def _normalizer(ctx: dict, key: str, pos: int) -> list[int]:
    group = ctx[key]
    cset = oracle.centralizer(group.mats[ctx[f"reps {key}"][pos]])
    return [cset.order, oracle.normalizer_of_set(cset)]


def _graph(ctx: dict, n: int, q: int) -> dict:
    graph = ctx[f"graph {n},{q}"] = clique.build_graph(n, q)
    return {"vertices": list(graph.vertices), "adjacency": [format(r, "x") for r in graph.adjacency]}


def _max_clique(ctx: dict, key: str) -> list:
    # The witness is checked for pairwise adjacency rather than hashed, so
    # that any other maximum clique a changed search may find still passes.
    graph = ctx[f"graph {key}"]
    result = clique.max_clique(graph)
    pos = [graph.vertices.index(e) for e in result.witness]
    is_clique = len(set(pos)) == result.size and all(
        (graph.adjacency[i] >> j) & 1 for i in pos for j in pos if i != j)
    return [result.size, result.optimal, is_clique]


WORKLOADS = {
    "census-deep": census_deep,
    "series-limits": series_limits,
    "oracle-groups": oracle_groups,
}
SCALES = ("full", "smoke")
