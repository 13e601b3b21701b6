"""The summary arithmetic of ``scripts/bench.py``, on made-up run values,
and one smoke-scale pass of ``scripts/job_peaks.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_summarize_gives_median_and_inclusive_quartiles():
    assert bench.summarize([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": 5, "values": [5.0, 1.0, 3.0, 2.0, 4.0]}
    one = bench.summarize([0.7])
    assert (one["median"], one["q1"], one["q3"], one["runs"]) == (0.7, 0.7, 0.7, 1)


def test_better_counts_follow_the_metric_direction():
    first, second = [3.0, 2.0, 1.0, 1.0], [1.0, 2.0, 2.0, 0.5]
    assert bench.better_counts(first, second, "lower") == {
        "pairs": 4, "second_better": 2, "second_worse": 1}
    assert bench.better_counts(first, second, "higher") == {
        "pairs": 4, "second_better": 1, "second_worse": 2}


def test_perfbench_digest_sees_a_changed_file(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("x = 1\n")
    assert bench.perfbench_digest(tmp_path / "a") == bench.perfbench_digest(tmp_path / "b")
    (tmp_path / "b" / "perfbench" / "run.py").write_text("x = 2\n")
    assert bench.perfbench_digest(tmp_path / "a") != bench.perfbench_digest(tmp_path / "b")


def test_incorrect_runs_name_side_workload_seed_and_trace():
    log = [
        {"side": "parent", "workload": "census-deep", "seed": 1, "trace": 0, "correct": True},
        {"side": "change", "workload": "census-deep", "seed": 1, "trace": 1, "correct": False},
        {"side": "parent", "workload": "oracle-groups", "seed": 7, "trace": 0, "correct": False},
    ]
    assert bench.incorrect_runs(log) == [
        "change census-deep seed=1 trace=1", "parent oracle-groups seed=7 trace=0"]
    assert bench.incorrect_runs(log[:1]) == []
    assert bench.incorrect_runs([]) == []


def test_compare_claims_a_gain_only_past_nine_tenths_and_the_spread():
    first = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    faster = [x - 1.0 for x in first]
    result = bench.compare(first, faster, "lower", 0.25)
    assert result["pairs"] == 10 and result["second_better"] == 10
    assert abs(result["median_gap"] + 1.0) < 1e-9
    assert abs(result["first_spread"] - 0.9) < 1e-9
    assert result["claim_holds"] and result["within_bound"] and not result["unresolved"]
    # better in every pair, but by less than the first side's spread
    slight = [x - 0.5 for x in first]
    assert not bench.compare(first, slight, "lower", 0.25)["claim_holds"]
    # a gap past the spread, but better in only 8 of 10 pairs
    mixed = faster[:8] + [x + 1.0 for x in first[8:]]
    result = bench.compare(first, mixed, "lower", 0.25)
    assert result["second_better"] == 8 and not result["claim_holds"]
    # 9 of 10 is enough
    assert bench.compare(first, faster[:9] + first[9:], "lower")["claim_holds"]


def test_compare_reads_the_bound_as_a_fraction_of_the_first_median():
    first = [2.0] * 10
    assert bench.compare(first, [2.15] * 10, "lower", 0.1)["within_bound"]
    assert not bench.compare(first, [2.3] * 10, "lower", 0.1)["within_bound"]
    # for a higher-is-better metric a fall is the regression
    assert bench.compare([1.0] * 10, [0.995] * 10, "higher", 0.01)["within_bound"]
    assert not bench.compare([1.0] * 10, [0.98] * 10, "higher", 0.01)["within_bound"]
    assert bench.compare([1.0] * 10, [1.5] * 10, "higher", 0.01)["claim_holds"]
    # per-layer metrics have no bound
    result = bench.compare(first, [2.3] * 10, "lower")
    assert result["within_bound"] is None and result["unresolved"] is None


def test_compare_is_unresolved_when_the_spread_passes_the_bound():
    first = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    # spread 1.25 against an allowed 0.25 * 2.0 = 0.5
    assert bench.compare(first, first, "lower", 0.25)["unresolved"]
    # unless every run of the second side reads better than every first run
    assert not bench.compare(first, [0.5] * 10, "lower", 0.25)["unresolved"]
    assert not bench.compare(first, [3.5] * 10, "higher", 0.25)["unresolved"]
    assert not bench.compare([2.0] * 10, [2.0] * 10, "lower", 0.25)["unresolved"]


def test_job_peaks_prints_every_job_of_a_smoke_pass_and_writes_nothing():
    perfbench = ROOT / "perfbench"
    before = sorted(perfbench.rglob("*"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "job_peaks.py"), "oracle-groups",
                           "5", "--scale", "smoke"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["seconds", "peak_mib", "rss_mib", "traced_mib", "live_mib", "ok", "job"]
    jobs = [line.split() for line in lines[2:]]
    assert jobs and all(len(job) == 7 and job[5] == "yes" for job in jobs)
    assert jobs[0][6] == "oracle.gl_group(2,3)"
    assert jobs[-1][6] == "oracle.count_cyclic_centralizers(2,3,steps=1000)"
    peaks = [float(job[1]) for job in jobs]
    assert peaks == sorted(peaks) and all(float(job[2]) > 0 for job in jobs)
    # the traced peaks: no job's exceeds the process's peak, and building a
    # group allocates a measurable amount
    traced = [float(job[3]) for job in jobs]
    assert all(0 <= t < peak for t, peak in zip(traced, peaks)) and traced[0] > 0
    # the live memory: the pass keeps the group it built, and holds less than
    # the process's peak
    live = [float(job[4]) for job in jobs]
    assert all(0 < m < peak for m, peak in zip(live, peaks))
    assert sorted(perfbench.rglob("*")) == before
