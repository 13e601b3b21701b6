"""Benchmark entry point: run one workload for a fixed time and print metrics.

    python3 perfbench/run.py --workload census-deep --seed 1 --seconds 40 --trace 0

Run from the repository root.  Every pass of the workload's job list runs in
a fresh interpreter (``worker.py``), so the library's caches start empty each
time; passes run one after another, a closed loop with a single client.  A
new pass starts only while it is expected to end within ``--seconds``; at
least one pass always runs.  Set-up is also timed in three interpreters that
stop just before the first job, and in as many more as fit after the passes.

With ``--trace 0`` the last line of output reports the end-to-end metrics,
each a median over passes.  With ``--trace 1`` untraced and traced passes
alternate, and it reports the per-layer metrics of the traced passes plus the
tracing overhead.  ``correct`` is false if any job's output differs from
``reference.json`` or if a traced pass's outputs differ from an untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
TIME_LIMIT_S = 170  # every process this script starts ends within this


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py in a new interpreter; return (spawn time, its report)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, timeout=max(deadline - spawned, 1), check=True, text=True,
    )
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census-deep", "series-limits", "oracle-groups"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke runs tiny instances, for the benchmark's own tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "glcensus" / "__init__.py").is_file():
        print(f"no glcensus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    common = [args.workload, str(args.seed), args.scale]
    setups: list[float] = []

    def probe() -> float:
        spawned, report = _spawn(common + ["setup"], deadline)
        setups.append(report["first_job_start"] - spawned)
        return time.monotonic() - spawned

    for _ in range(SETUP_PROBES):
        probe_s = probe()
    modes = [0, 1] if args.trace else [0]
    passes: dict[int, list[dict]] = {0: [], 1: []}
    durations = []
    while True:
        mode = modes[len(durations) % len(modes)]
        spawned, report = _spawn(common + [str(mode)], deadline)
        durations.append(time.monotonic() - spawned)
        passes[mode].append(report)
        setups.append(report["first_job_start"] - spawned)
        elapsed = time.monotonic() - start
        if len(durations) >= len(modes) and elapsed + statistics.median(durations) > args.seconds:
            break
    while time.monotonic() - start + probe_s < args.seconds:
        probe_s = probe()

    for p in passes[0] + passes[1]:
        for job in p["jobs"]:
            if not job["ok"]:
                print(f"FAILED {job['id']}: {job['outcome']}", file=sys.stderr)
    print(json.dumps(summarize(passes[0], passes[1], setups)))
    return 0


def summarize(untraced: list[dict], traced: list[dict], setups: list[float]) -> dict:
    """The result line: end-to-end metrics, or per-layer ones if any pass was traced."""
    outcomes = [job for p in untraced + traced for job in p["jobs"]]
    failed = sum(not job["ok"] for job in outcomes)
    untraced_outcomes = {job["id"]: job["outcome"] for job in untraced[0]["jobs"]}
    consistent = all(untraced_outcomes.get(job["id"]) == job["outcome"]
                     for p in traced for job in p["jobs"])

    def median(key: str, which: list[dict]) -> float:
        return statistics.median(p[key] for p in which)

    if traced:
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                          "unit": _unit(name)} for name in traced[0]["layers"]}
        overhead = median("wall_s", traced) / median("wall_s", untraced) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        metrics = {
            "wall_s": {"value": median("wall_s", untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": median("peak_rss_mib", untraced), "unit": "MiB"},
            "pass_frac": {"value": 1 - failed / len(outcomes), "unit": "frac"},
        }
    return {"correct": failed == 0 and consistent, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
