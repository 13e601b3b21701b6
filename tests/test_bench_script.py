"""The summary arithmetic of ``scripts/bench.py``, on made-up run values."""

import importlib.util
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
