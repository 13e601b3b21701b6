"""Regenerate reference.json: the SHA-256 digest of every job's exact output.

Usage, from the repository root:

    python3 perfbench/make_reference.py

The digests come from the code as it stands, so the script first asserts
agreement with the packaged goldens wherever a job overlaps them, and refuses
to write anything otherwise.  Every pool member a seed could select is
included, for both the full and the smoke scale.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glcensus import census, clique, exactalg, oracle, qseries  # noqa: E402
from glcensus.verify import load_golden  # noqa: E402

import workloads  # noqa: E402
from worker import REFERENCE  # noqa: E402


def _agree(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"computed {what} disagrees with the packaged goldens")


def check_goldens() -> None:
    b_golden = load_golden("b_rationals.json")
    table1 = load_golden("table1.json")
    phi_counts = load_golden("phi_counts.json")
    omega = load_golden("omega_known.json")

    def a_of(n: int, q: int) -> int:
        return exactalg.poly_from_json(table1[str(n)]).eval_int(q)

    for n in workloads.CENSUS_BAND["smoke"]:
        _agree(census.phi_count(n) == phi_counts[str(n)], f"phi_count({n})")
        _agree(census.b_coefficient(n) == exactalg.rf_from_json(b_golden[str(n)]), f"b_{n}")
        _agree(census.a_polynomial(n) == exactalg.poly_from_json(table1[str(n)]), f"a_{n}")
    for scale in workloads.SCALES:
        order = workloads.SERIES[scale]["fbar"]
        fbar = qseries.build_fbar(order)
        for n in range(min(order, 8) + 1):
            _agree(fbar[n] == exactalg.rf_from_json(b_golden[str(n)]), f"fbar t^{n}")
        for n, q, _, _ in workloads.ORACLE[scale]["census"]:
            count, _ = oracle.count_cyclic_centralizers(n, q)
            _agree(count == omega.get(f"{n},{q}", count), f"centralizer count of GL_{n}({q})")
            _agree(q <= n or count == a_of(n, q), f"centralizer count of GL_{n}({q}) vs a_{n}({q})")
        n, q = workloads.ORACLE[scale]["clique"]
        size = clique.max_clique(clique.build_graph(n, q)).size
        _agree(size == omega.get(f"{n},{q}", size), f"omega of GL_{n}({q})")
        _agree(q <= n or size == a_of(n, q), f"omega of GL_{n}({q}) vs a_{n}({q})")
    _agree(oracle.count_cyclic_centralizers(3, 3)[0] == 1067, "centralizer count 1067 of GL_3(3)")


def main() -> None:
    check_goldens()
    digests = {}
    for scale in workloads.SCALES:
        for name, build in workloads.WORKLOADS.items():
            ctx: dict = {}
            for job in build(scale, workloads.Sampler(None)):
                digests[job.id] = workloads.run_job(job, ctx)
                print(f"{scale:5} {name:13} {job.id}", file=sys.stderr, flush=True)
    REFERENCE.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
