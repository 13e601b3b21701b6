"""The names the benchmark in ``perfbench/`` reads from the library still exist.

The benchmark patches every site in ``tracer.SITES`` and digests the output
of each job, so a renamed or deleted name would show there only as failed
jobs.  These checks make it a test failure instead.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import worker  # noqa: E402


def test_every_traced_site_exists():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracer.SITES if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("workload", ["census-deep", "series-limits", "oracle-groups"])
def test_smoke_pass_matches_the_reference(workload):
    result = worker.run_pass(workload, 3, "smoke", worker.load_reference())
    failed = [job for job in result["jobs"] if not job["ok"]]
    assert result["jobs"] and failed == []
