"""Tests of the benchmark itself, on the smoke scale.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("census.labels", "oracle.elements", "oracle.commuting_scans", "clique.bb_nodes",
                "exactalg.poly_gcd_calls", "exactalg.divmod_calls")


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_size_reports_every_metric(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_fresh_processes(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    assert [first["metrics"][k] for k in EXACT_COUNTS] == [second["metrics"][k] for k in EXACT_COUNTS]


def test_corrupted_reference_digest_fails_its_job():
    reference = worker.load_reference()
    jobs = workloads.census_deep("smoke", workloads.Sampler("census-deep:3"))
    reference[jobs[1].id] = "0" * 64
    report = worker.run_pass("census-deep", 3, "smoke", reference)
    assert [job["id"] for job in report["jobs"] if not job["ok"]] == [jobs[1].id]
    result = run.summarize([report], [], [0.1])
    assert not result["correct"] and result["failed"] == 1
    assert 1 - result["metrics"]["pass_frac"]["value"] > 0


def test_refusal_job_passes_only_when_refused():
    job = workloads.oracle_groups("smoke", workloads.Sampler(None))[-1]
    assert job.refuses and workloads.run_job(job, {}) == workloads.REFUSED
    returns = workloads.Job(job.id, lambda ctx: 0, refuses=True)
    assert workloads.run_job(returns, {}) != workloads.REFUSED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_restores_originals_and_self_times_fit_in_wall(workload):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.SITES]
    report = worker.run_pass(workload, 3, "smoke", worker.load_reference(), tracer.Tracer())
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    assert all(job["ok"] for job in report["jobs"])
    self_times = [report["layers"][f"{layer}.self_s"] for layer in tracer.LAYERS]
    assert min(self_times) > -1e-9 and sum(self_times) <= report["wall_s"]
