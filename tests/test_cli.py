import json
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lltlattice", *args],
        capture_output=True,
        text=True,
    )


def test_compute_worked_polynomial_text():
    out = run_cli("compute", "--beta", "3;2", "--gamma", "0;0", "--n", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == (
        "t*(x1^3*x2^2 + x1^2*x2^3)"
        " + t^2*(x1^4*x2 + x1^3*x2^2 + x1^2*x2^3 + x1*x2^4)"
        " + t^3*(x1^5 + x1^4*x2 + x1^3*x2^2 + x1^2*x2^3 + x1*x2^4 + x2^5)"
    )


def test_compute_skew_json():
    out = run_cli(
        "compute", "--beta", "3,3;3,1", "--gamma", "2,1;1,0", "--n", "2",
        "--format", "json",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["vars"] == {"nx": 2, "ny": 0, "t": True}
    terms = {tuple(item["e"]): int(item["c"]) for item in data["terms"]}
    assert terms[(3, 3, 2)] == 3
    assert terms[(2, 4, 1)] == 1
    assert len(terms) == 8


def test_compute_trivial():
    out = run_cli("compute", "--beta", "0", "--gamma", "0", "--n", "1")
    assert out.returncode == 0
    assert out.stdout.strip() == "(1)"


def test_compute_two_cells():
    out = run_cli("compute", "--beta", "1;1", "--gamma", "0;0", "--n", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == "(x1*x2) + t*(x1^2 + x1*x2 + x2^2)"


def test_compute_parse_error_exit_2():
    out = run_cli("compute", "--beta", "1,2", "--n", "2")
    assert out.returncode == 2
    assert "error" in out.stderr


@pytest.mark.parametrize("engine", ["tableaux", "lattice", "both"])
def test_compute_n0_exit_2(engine):
    out = run_cli("compute", "--beta", "2,1", "--n", "0", "--engine", engine)
    assert out.returncode == 2
    assert out.stderr == "error: n must be at least 1\n"
    assert out.stdout == ""


def test_compute_engine_choices():
    for engine in ("tableaux", "lattice", "both"):
        out = run_cli(
            "compute", "--beta", "2;1", "--n", "2", "--engine", engine,
            "--format", "json",
        )
        assert out.returncode == 0
    a = run_cli("compute", "--beta", "2;1", "--n", "2", "--engine", "tableaux", "--format", "json")
    b = run_cli("compute", "--beta", "2;1", "--n", "2", "--engine", "lattice", "--format", "json")
    assert a.stdout == b.stdout


def test_stats_worked_example():
    out = run_cli("stats", "--beta", "3,3;3,1", "--gamma", "2,1;1,0")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert (data["r"], data["s"], data["band"]) == (-1, 3, 4)


def test_stats_single_rows():
    out = run_cli("stats", "--beta", "3;2", "--gamma", "0;0")
    data = json.loads(out.stdout)
    assert data["m"] == 3 and data["m_formula"] == 3
    assert data["inv"] == 1 and data["n_mu"] == 2


def test_stats_empty():
    out = run_cli("stats", "--beta", "0", "--gamma", "0")
    data = json.loads(out.stdout)
    assert data["m"] == 0 and data["band"] == 0


def test_verify_ybe():
    out = run_cli("verify", "ybe", "--k", "2", "--mode", "symbolic")
    assert out.returncode == 0
    assert "PASS" in out.stdout and "4096" in out.stdout


def test_verify_cauchy_json():
    out = run_cli(
        "verify", "cauchy", "--n", "1", "--k", "2", "--degree", "3",
        "--format", "json",
    )
    assert out.returncode == 0
    line = out.stdout.strip().splitlines()[0]
    data = json.loads(line)
    assert data["status"] == "PASS"


def test_verify_quick_suite():
    out = run_cli("verify", "all", "--quick", "--seed", "5")
    assert out.returncode == 0
    assert out.stdout.strip().splitlines()[-1].startswith("summary:")


def test_verify_deterministic_output():
    a = run_cli("verify", "all", "--quick", "--seed", "5", "--format", "json")
    b = run_cli("verify", "all", "--quick", "--seed", "5", "--format", "json")
    assert a.stdout == b.stdout


def test_verify_workers_match_serial():
    a = run_cli("verify", "all", "--quick", "--seed", "5", "--format", "json")
    c = run_cli("verify", "all", "--quick", "--seed", "5", "--format", "json", "--workers", "2")
    assert a.stdout == c.stdout


def test_verify_bad_identity_exit_2():
    out = run_cli("verify", "nonsense")
    assert out.returncode == 2
