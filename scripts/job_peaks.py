"""Time one perfbench pass job by job and show where its memory peak is set.

    python3 scripts/job_peaks.py oracle-groups 91 [--scale smoke|full]

Runs one pass of the workload in this process, with the same job list,
sampler seed and reference digests as ``perfbench/worker.py``, and prints
one line per job: its seconds, the process's peak resident set
(``ru_maxrss``) and its current resident set (from ``/proc/self/statm``,
so Linux only) after the job, the ``tracemalloc`` peak inside the job, all
in MiB, and whether the job's outcome matched its reference digest.  The
job at which the peak first reaches its final value is the one that sets
the pass's ``peak_rss_mib``.  The traced peak is the largest that the
job's own allocations, numpy arrays and Python objects alike, reached
above what was allocated before it: the transient that the allocator may
keep resident after the job.  Tracing costs time and memory, so the traced
peaks come from a second pass in a fresh interpreter, and the other
columns are those of the untraced pass.

It reads ``perfbench/workloads.py`` and ``worker.py`` as they are and writes
nothing: no bytecode is cached, so nothing appears under ``perfbench/``.
The exit status is 1 when any job did not match, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worker  # noqa: E402
import workloads  # noqa: E402

PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def current_mib() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_MIB


def job_peaks(workload: str, seed: int, scale: str, trace: bool = False):
    """Yield (job id, seconds, peak MiB, current MiB, traced MiB, matched)
    per job of one pass; the traced peak is None unless ``trace``."""
    reference = worker.load_reference()
    jobs = workloads.WORKLOADS[workload](scale, workloads.Sampler(f"{workload}:{seed}"))
    ctx: dict = {}
    for job in jobs:
        if trace:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            outcome = workloads.run_job(job, ctx)
        except Exception as exc:  # as in worker.py, a crashed job is a failed job
            outcome = f"error: {exc!r}"
        seconds = time.perf_counter() - start
        traced = tracemalloc.get_traced_memory()[1] / 2**20 if trace else None
        tracemalloc.stop()
        yield job.id, seconds, peak_mib(), current_mib(), traced, outcome == reference.get(job.id)


def traced_peaks(workload: str, seed: int, scale: str) -> list[float]:
    """The traced peak of every job, from a traced pass in a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, workload, str(seed), "--scale", scale, "--traced"],
                          capture_output=True, text=True, check=True)
    return [float(line) for line in proc.stdout.split()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    # the traced pass: print only each job's traced peak, one a line
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.traced:
        for *_, traced, _ in job_peaks(args.workload, args.seed, args.scale, trace=True):
            print(traced)
        return 0
    print(f"{'seconds':>8} {'peak_mib':>9} {'rss_mib':>8} {'traced_mib':>10}  ok  job")
    print(f"{'':>8} {peak_mib():9.2f} {current_mib():8.2f} {'':>10}      (before the first job)")
    rows = list(job_peaks(args.workload, args.seed, args.scale))
    failed = 0
    for (job_id, seconds, peak, current, _, ok), traced in zip(rows, traced_peaks(args.workload, args.seed,
                                                                                args.scale)):
        failed += not ok
        print(f"{seconds:8.3f} {peak:9.2f} {current:8.2f} {traced:10.2f}  {'yes' if ok else 'NO '} {job_id}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
