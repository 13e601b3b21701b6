"""Run perfbench over its workloads for several seeds and write a BENCH file.

    python3 scripts/bench.py --out BENCH.json --seeds 1 2 3 \\
        --side parent=../parent-checkout --side change=.

Each ``--side NAME=DIR`` is a checkout of this repository; its own
``perfbench/run.py`` runs on its own ``src/``.  The sides must carry
byte-identical ``perfbench/`` directories, so every side is measured by the
same benchmark code; the script refuses otherwise, and it never writes under
``perfbench/``.  Runs interleave: for each seed and workload every side runs
once, and the order of the sides alternates from one seed to the next.

Every run lasts ``BENCHMARK.json``'s ``run_seconds``, uses ``--trace 0`` and
gives the end-to-end metrics.  The first ``TRACED_SEEDS`` seeds also get a
``--trace 1`` run per side and workload, which gives the per-layer metrics.
The output has one entry per side, workload and metric, with the median and
quartiles over the runs, the run count, the values in run order, the side's
git sha and ``nproc``.  With two sides it also compares them per workload
and metric, in the direction ``BENCHMARK.json`` gives for the metric: the
seeds on which the second side read better or worse than the first (ties
count for neither), the gap between the medians, the first side's quartile
spread, whether a gain of the second side may be claimed (better in at
least nine tenths of the pairs, and a median gap wider than that spread),
and, for the end-to-end metrics, whether the second median stays within the
metric's bound and whether the comparison is unresolved.  A bound is a
fraction of the first side's median: the second median may read worse by at
most that much.  A comparison is unresolved when the first side's own spread
is wider than the bound, unless every run of the second side reads better
than every run of the first.

The file is written in any case.  The exit status is 1 when any run reported
``correct: false``, and each such run is named on stderr by side, workload,
seed and trace; it is 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_SEEDS = 2  # how many of the seeds also get a traced run


def perfbench_digest(checkout: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under perfbench/."""
    h = hashlib.sha256()
    base = checkout / "perfbench"
    for path in sorted(p for p in base.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in the checkout; returns its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, check=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    """Median and quartiles of the runs; with one run all three are that run."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values),
            "values": values}


def better_counts(first: list[float], second: list[float], better: str) -> dict:
    """Pairs, in run order, where the second side reads better, worse or the same."""
    sign = 1 if better == "lower" else -1
    diffs = [sign * (a - b) for a, b in zip(first, second)]
    return {"pairs": len(diffs), "second_better": sum(d > 0 for d in diffs),
            "second_worse": sum(d < 0 for d in diffs)}


def compare(first: list[float], second: list[float], better: str,
            bound: float | None = None) -> dict:
    """The pair counts and the verdicts of one metric, as the module
    docstring defines them; the median gap is second minus first, and the
    bound verdicts are None for a metric without a bound."""
    counts = better_counts(first, second, better)
    a, b = summarize(first), summarize(second)
    sign = 1 if better == "lower" else -1
    gain = sign * (a["median"] - b["median"])  # positive when the second median reads better
    spread = a["q3"] - a["q1"]
    within = unresolved = None
    if bound is not None:
        allowed = bound * abs(a["median"])
        within = -gain <= allowed
        every_run_better = (max(second) < min(first) if better == "lower"
                            else min(second) > max(first))
        unresolved = spread > allowed and not every_run_better
    return {**counts, "median_gap": b["median"] - a["median"], "first_spread": spread,
            "claim_holds": 10 * counts["second_better"] >= 9 * counts["pairs"] and gain > spread,
            "within_bound": within, "unresolved": unresolved}


def incorrect_runs(log: list[dict]) -> list[str]:
    """The runs of the log that reported ``correct: false``, one line each."""
    return [f"{r['side']} {r['workload']} seed={r['seed']} trace={r['trace']}"
            for r in log if not r["correct"]]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    args = parser.parse_args()

    sides = {}
    for item in args.side:
        name, sep, path = item.partition("=")
        if not sep or not name or name in sides:
            parser.error(f"--side wants a new NAME=DIR, got {item!r}")
        sides[name] = Path(path).resolve()
    shas = {name: git_sha(path) for name, path in sides.items()}
    digests = {name: perfbench_digest(path) for name, path in sides.items()}
    if len(set(digests.values())) != 1:
        parser.error(f"the sides' perfbench/ directories differ: {digests}")

    names = list(sides)
    runs: dict[tuple[str, str, int], list[dict]] = {}
    log: list[dict] = []
    for i, seed in enumerate(args.seeds):
        order = names if i % 2 == 0 else names[::-1]
        traces = (0, 1) if i < TRACED_SEEDS else (0,)
        for workload in workloads:
            for trace in traces:
                for name in order:
                    result = run_perfbench(sides[name], workload, seed, spec["run_seconds"], trace)
                    runs.setdefault((name, workload, trace), []).append(result)
                    log.append({"side": name, "workload": workload, "seed": seed,
                                "trace": trace, "correct": result["correct"]})
                    print(f"{name} {workload} seed={seed} trace={trace} correct={result['correct']}",
                          file=sys.stderr)

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    entries = []
    values: dict[tuple[str, str, str], list[float]] = {}
    for (name, workload, trace), results in runs.items():
        for metric, reading in results[0]["metrics"].items():
            values[name, workload, metric] = [r["metrics"][metric]["value"] for r in results]
            entries.append({
                "side": name, "workload": workload, "metric": metric,
                "unit": reading["unit"], "trace": trace,
                **summarize(values[name, workload, metric]),
                "correct": all(r["correct"] for r in results),
                "sha": shas[name], "nproc": nproc,
            })
    report: dict = {
        "seconds": spec["run_seconds"], "seeds": args.seeds,
        "traced_seeds": args.seeds[:TRACED_SEEDS],
        "perfbench_sha256": digests[names[0]], "nproc": nproc,
        "sides": shas,
        "entries": entries,
    }
    if len(names) == 2:
        first, second = names
        report["comparisons"] = [
            {"workload": workload, "metric": metric, "first": first, "second": second,
             **compare(values[first, workload, metric], values[second, workload, metric],
                       directions[metric], bounds.get(metric))}
            for (name, workload, metric) in values if name == first and metric in directions
        ]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    bad = incorrect_runs(log)
    for line in bad:
        print(f"incorrect run: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
