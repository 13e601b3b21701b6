"""One measured pass of a workload, in a fresh interpreter.

Run by ``run.py`` as ``worker.py WORKLOAD SEED SCALE TRACE`` with the
repository's ``src`` on ``PYTHONPATH``; ``TRACE`` is 0, 1, or ``setup`` to stop
just before the first job.  Prints one JSON line: the monotonic time at which
the first job started, and for a pass the job outcomes, ``wall_s``, the peak
resident memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE) -> dict[str, str]:
    return json.loads(path.read_text())["digests"]


def run_pass(workload: str, seed: int, scale: str, reference: dict[str, str],
             trace: tracer.Tracer | None = None) -> dict:
    """Run every job of one pass and check each outcome against the reference."""
    jobs = workloads.WORKLOADS[workload](scale, workloads.Sampler(f"{workload}:{seed}"))
    ctx: dict = {}
    results = []
    if trace is not None:
        trace.install()
    try:
        start = time.monotonic()
        for job in jobs:
            try:
                outcome = workloads.run_job(job, ctx)
            except Exception as exc:  # a crashed job is a failed job; the pass goes on
                outcome = f"error: {exc!r}"
            results.append({"id": job.id, "outcome": outcome,
                            "ok": outcome == reference.get(job.id)})
        end = time.monotonic()
    finally:
        if trace is not None:
            trace.restore()
    out = {"first_job_start": start, "wall_s": end - start, "jobs": results,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace is not None:
        out["layers"] = trace.metrics()
    return out


def main(argv: list[str]) -> None:
    workload, seed, scale, mode = argv
    reference = load_reference()
    if mode == "setup":
        print(json.dumps({"first_job_start": time.monotonic()}))
        return
    trace = tracer.Tracer() if mode == "1" else None
    print(json.dumps(run_pass(workload, int(seed), scale, reference, trace)))


if __name__ == "__main__":
    main(sys.argv[1:])
