"""Time one perfbench pass job by job and show where its memory peak is set.

    python3 scripts/job_peaks.py oracle-groups 91 [--scale smoke|full]

Runs one pass of the workload in this process, with the same job list,
sampler seed and reference digests as ``perfbench/worker.py``, and prints
one line per job: its seconds; the CPU seconds (user and system) that
threads other than the main one spent during it, such as OpenBLAS's
workers, read from ``/proc/self/task/<tid>/stat``; the process's peak
resident set (``ru_maxrss``) and its current resident set (from
``/proc/self/statm``) after the job, the ``tracemalloc`` peak inside the
job and the ``tracemalloc`` current after it, all in MiB; and whether the
job's outcome matched its reference digest.  Both ``/proc`` reads make the
script Linux only.  The job at which the peak first reaches its final value
is the one that sets the pass's ``peak_rss_mib``.
The traced peak is the largest that allocations, numpy arrays and Python
objects alike, reached during the job above what was allocated when it
began: the transient that the allocator may keep resident after the job.
The live column is what the pass's own allocations still hold after the
job, such as the cached groups: the resident share of the peak.  Tracing
costs time and memory, so both traced columns come from a second pass in a
fresh interpreter, traced from its first job on, and the other columns are
those of the untraced pass.

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
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def current_mib() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_MIB


def other_cpu_s() -> float:
    """The user and system CPU seconds that every live thread of this
    process but the main one has spent so far.  A thread's utime and stime
    are fields 14 and 15 of its stat line; field 2, the name, is in
    parentheses and may hold spaces, so fields are counted from field 3,
    the first after the closing parenthesis."""
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread has ended since the listing
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / CLOCK_TICKS


def job_peaks(workload: str, seed: int, scale: str, trace: bool = False):
    """Yield (job id, seconds, other threads' CPU seconds, peak MiB, current
    MiB, traced MiB, live MiB, matched) per job of one pass; the traced
    columns are None unless ``trace``, which traces the pass from its first
    job on."""
    reference = worker.load_reference()
    jobs = workloads.WORKLOADS[workload](scale, workloads.Sampler(f"{workload}:{seed}"))
    ctx: dict = {}
    if trace:
        tracemalloc.start()
    traced = live = None
    for job in jobs:
        if trace:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
        other_start = other_cpu_s()
        start = time.perf_counter()
        try:
            outcome = workloads.run_job(job, ctx)
        except Exception as exc:  # as in worker.py, a crashed job is a failed job
            outcome = f"error: {exc!r}"
        seconds = time.perf_counter() - start
        other = other_cpu_s() - other_start
        if trace:
            current, peak = tracemalloc.get_traced_memory()
            traced, live = (peak - before) / 2**20, current / 2**20
        yield job.id, seconds, other, peak_mib(), current_mib(), traced, live, outcome == reference.get(job.id)
    tracemalloc.stop()


def traced_columns(workload: str, seed: int, scale: str) -> list[tuple[float, float]]:
    """The traced peak and live MiB of every job, from a traced pass in a
    fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, workload, str(seed), "--scale", scale, "--traced"],
                          capture_output=True, text=True, check=True)
    return [(float(traced), float(live)) for traced, live in map(str.split, proc.stdout.splitlines())]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    # the traced pass: print only each job's traced peak and live MiB, one job a line
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.traced:
        for *_, traced, live, _ in job_peaks(args.workload, args.seed, args.scale, trace=True):
            print(traced, live)
        return 0
    print(f"{'seconds':>8} {'other_cpu_s':>11} {'peak_mib':>9} {'rss_mib':>8} {'traced_mib':>10} {'live_mib':>8}"
          "  ok  job")
    print(f"{'':>8} {'':>11} {peak_mib():9.2f} {current_mib():8.2f} {'':>10} {'':>8}      (before the first job)")
    rows = list(job_peaks(args.workload, args.seed, args.scale))
    failed = 0
    for (job_id, seconds, other, peak, current, *_, ok), (traced, live) in zip(
            rows, traced_columns(args.workload, args.seed, args.scale)):
        failed += not ok
        print(f"{seconds:8.3f} {other:11.2f} {peak:9.2f} {current:8.2f} {traced:10.2f} {live:8.2f}"
              f"  {'yes' if ok else 'NO '} {job_id}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
