import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glcensus import census, cli, exactalg, qseries


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_json_payload(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "3", "--q", "4", "--json")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "class_count": 5,
        "b_n": exactalg.rf_to_json(census.b_coefficient(3)),
        "a_polynomial": ["-1", "-1", "1", "3", "3", "1", "1"],
        "q": 4,
        "subgroup_count": {"value": "6091", "regime": "exact count"},
        "omega": {"value": "6091", "regime": "exact (q > n)"},
    }


def test_series_expand_fbar(capsys):
    code, out, _ = run_cli(capsys, "series", "expand", "--which", "fbar", "--order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [exactalg.rf_to_json(c) for c in qseries.build_fbar(3).coeffs]


def test_series_expand_f2_product_payload(capsys):
    code, out, _ = run_cli(capsys, "series", "expand", "--which", "f2", "--form", "product",
                           "--order", "4", "--u-order", "8", "--json")
    assert code == 0
    rows = [
        ["1", "0", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "1", "2", "3", "4", "5", "6"],
        ["0", "0", "0", "0", "0", "1", "2", "3", "4"],
        ["0", "0", "0", "0", "0", "0", "1", "3", "8"],
    ]
    assert json.loads(out) == {
        "which": "f2",
        "form": "product",
        "order": 4,
        "coefficients": [{"u_order": 8, "coeffs": row} for row in rows],
    }


def test_verify_fast_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "fast", "--json")
    assert code == 0
    assert "fail" not in {check["status"] for check in json.loads(out)["checks"]}


@pytest.mark.parametrize("argv", [
    ["census", "--n", "3", "--q", "6"],  # not a prime power
    ["census", "--n", "0"],
    ["series", "expand", "--which", "f2", "--form", "sum", "--order", "3"],
    ["series", "expand", "--which", "fbar", "--form", "product", "--order", "3"],
    ["limit", "lq", "--q", "1"],  # the product diverges
    ["limit", "check", "--q", "abc"],
    ["oracle", "--n", "3", "--q", "4", "--task", "centralizer-count"],  # over budget
    ["oracle", "--n", "2", "--q", "2", "--task", "remark-matrix"],
    ["clique", "omega", "--n", "2", "--q", "3", "--budget", "10"],
    ["limit", "lq", "--q", "1/0"],  # zero denominator
    ["limit", "check", "--q", "1/0"],
    ["series", "expand", "--which", "fbar", "--order", "-1"],
    ["series", "expand", "--which", "f2", "--order", "-1"],
    ["series", "expand", "--which", "f1", "--form", "product", "--order", "3", "--u-order", "-1"],
    ["series", "expand", "--which", "f2", "--form", "product", "--order", "3", "--u-order", "-1"],
    ["clique", "omega", "--n", "0", "--q", "2"],
    ["oracle", "--n", "0", "--q", "2", "--task", "centralizer-count"],
    ["oracle", "--n", "-1", "--q", "2", "--task", "centralizer-count"],
])
def test_refused_requests_exit_2_with_one_json_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out.count("\n") == 1 and set(json.loads(out)) == {"error"}
    assert "Traceback" not in out + err


def test_python_m_glcensus(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "glcensus", "census", "--n", "2", "--json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["a_polynomial"] == ["1", "1", "1"]
