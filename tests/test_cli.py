import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from glcensus import asympt, census, cli, clique, exactalg, oracle, qseries


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
    ["oracle", "--n", "-1", "--q", "2", "--task", "regular-unipotent"],
    ["oracle", "--n", "0", "--q", "2", "--task", "jm-check"],
    ["oracle", "--n", "2"],  # usage errors: missing --q and --task
    ["census", "--n", "x"],
    ["oracle", "--n", "2", "--q", "3", "--task", "nope"],
    ["nope"],
    ["clique", "omega", "--n", "2", "--q", "2", "--timeout", "-1"],
    ["clique", "omega", "--n", "2", "--q", "2", "--timeout", "nan"],
    ["verify", "--golden-dir", "/nonexistent-golden-dir"],
    ["oracle", "--n", "2", "--q", "2", "--task", "jm-check", "--budget", "-1"],
    ["oracle", "--n", "2", "--q", "2", "--task", "centralizer-count", "--budget", "-5"],
    ["oracle", "--n", "2", "--q", "64", "--task", "jm-check"],  # 266 304 candidate polynomials
])
def test_refused_requests_exit_2_with_one_json_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out.count("\n") == 1 and set(json.loads(out)) == {"error"}
    assert "Traceback" not in out + err


def test_jm_check_refusal_builds_no_field(capsys):
    fields = oracle.get_field.cache_info()
    code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--q", "64", "--task", "jm-check")
    assert code == 2
    assert json.loads(out)["error"].startswith("jm-check over F_64 exceeds the enumeration budget")
    assert oracle.get_field.cache_info() == fields


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--help"])
    assert exc.value.code == 0
    assert "--n" in capsys.readouterr().out


def test_limit_lq_q2_default_terms_prints_hex_endpoints(capsys):
    code, out, _ = run_cli(capsys, "limit", "lq", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == 30
    assert payload["decimal_lo"] == "278.984776098226"
    iv = asympt.l_of_q(2, 30)
    for key, exact in (("lo", iv.lo), ("hi", iv.hi)):
        num, den = payload[key].split("/")
        assert Fraction(int(num, 16), int(den, 16)) == exact


@pytest.mark.parametrize("n,task", [(-1, "regular-unipotent"), (0, "jm-check"),
                                    (-1, "centralizer-count"), (0, "cyclic-proportion")])
def test_oracle_refusal_names_the_given_n(capsys, n, task):
    code, out, _ = run_cli(capsys, "oracle", "--n", str(n), "--q", "2", "--task", task)
    assert code == 2
    assert json.loads(out)["error"] == f"GL_n(q) needs n >= 1, got n = {n}"


def test_oracle_regular_unipotent_n1(capsys):
    # in GL_1(q) the regular unipotent is the identity: both its centralizer
    # and its normalizer are GL_1(q), of order q - 1
    code, out, _ = run_cli(capsys, "oracle", "--n", "1", "--q", "4", "--task", "regular-unipotent")
    assert code == 0
    assert json.loads(out) == {
        "task": "regular-unipotent", "n": 1, "q": 4,
        "centralizer_order": 3, "centralizer_expected": 3,
        "normalizer_order": 3, "normalizer_expected": 3,
        "as_expected": True, "status": "pass",
    }


@pytest.mark.parametrize("task,expect", [
    ("cyclic-proportion", {"proportion": "23/24", "estimate_minus_error": "19/21",
                           "expanded_lower": "619/729", "bound_holds": True}),
    ("centralizer-count", {"distinct_centralizers": 13, "census_value": 13,
                           "regime": "equality expected (q > n)", "as_expected": True}),
    ("regular-unipotent", {"centralizer_order": 6, "centralizer_expected": 6,
                           "normalizer_order": 12, "normalizer_expected": 12,
                           "as_expected": True}),
    ("jm-check", {"cases": 42, "failures": [], "as_expected": True}),
])
def test_oracle_task_payloads(capsys, task, expect):
    code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--q", "3", "--task", task)
    assert code == 0
    assert json.loads(out) == {"task": task, "n": 2, "q": 3, **expect, "status": "pass"}


def test_clique_emit_witness(capsys, tmp_path):
    # each row is the row-major entries of one witness element, in the order
    # of the witness the search returns
    for q, omega in ((2, 4), (3, 13)):
        path = tmp_path / f"witness{q}.txt"
        code, out, _ = run_cli(capsys, "clique", "omega", "--n", "2", "--q", str(q),
                               "--emit-witness", str(path))
        assert code == 0 and json.loads(out)["omega"] == omega
        group = oracle.gl_group(2, q)
        witness = clique.compute_omega(2, q)[0].witness
        expect = [" ".join(str(x) for row in group.mats[i].rows for x in row) for i in witness]
        assert path.read_text().splitlines() == expect


def test_clique_unwritable_witness_is_refused_before_the_search(capsys, tmp_path, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(clique, "compute_omega", no_search)
    path = tmp_path / "missing" / "witness.txt"
    code, out, err = run_cli(capsys, "clique", "omega", "--n", "2", "--q", "2",
                             "--emit-witness", str(path))
    assert code == 2
    assert out.count("\n") == 1 and set(json.loads(out)) == {"error"}
    assert "Traceback" not in out + err


def test_refused_clique_leaves_the_witness_file_as_it_was(capsys, tmp_path):
    path = tmp_path / "witness.txt"
    path.write_bytes(b"an old witness\n")
    code, out, _ = run_cli(capsys, "clique", "omega", "--n", "3", "--q", "3", "--budget", "10",
                           "--emit-witness", str(path))
    assert code == 2 and set(json.loads(out)) == {"error"}
    assert path.read_bytes() == b"an old witness\n"
    # a search that returns replaces the old content
    code, _, _ = run_cli(capsys, "clique", "omega", "--n", "2", "--q", "2",
                         "--emit-witness", str(path))
    assert code == 0 and len(path.read_text().splitlines()) == 4


def test_refused_clique_creates_no_witness_file(capsys, tmp_path):
    path = tmp_path / "new.txt"
    code, out, _ = run_cli(capsys, "clique", "omega", "--n", "3", "--q", "3", "--budget", "10",
                           "--emit-witness", str(path))
    assert code == 2 and set(json.loads(out)) == {"error"}
    assert not path.exists()


def test_python_m_glcensus(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "glcensus", "census", "--n", "2", "--json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["a_polynomial"] == ["1", "1", "1"]
