import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lltlattice import cli, identities
from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.identities import EngineMismatch, IdentityReport


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


@pytest.mark.parametrize("flag, text", [("--beta", ""), ("--gamma", "0;")])
def test_compute_names_a_shape_flag_with_a_non_integer_part(flag, text, capsys):
    shape = {"--beta": "1;1", "--gamma": "0;0", flag: text}
    assert cli.main(["compute", *(f"{k}={v}" for k, v in shape.items()), "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} parts must be integers, not {text!r}\n"


@pytest.mark.parametrize("command, message", [
    ("compute --beta -1 --n 1", "--beta: negative part in (-1,)"),
    ("verify hl --mu 1,2", "--mu: parts not weakly decreasing: (1, 2)"),
    ("stats --beta 2 --gamma 3",
     "--gamma does not fit --beta: containment fails: (3,) is not inside (2,)"),
    ("verify symmetry --beta 2;1 --gamma 0",
     "--gamma does not fit --beta: beta and gamma must have the same number of components"),
    ("compute --beta 1 --gamma= --n 1", "--gamma parts must be integers, not ''"),
    ("stats --beta 2 --gamma=", "--gamma parts must be integers, not ''"),
    ("verify symmetry --gamma=", "--gamma parts must be integers, not ''"),
])
def test_shape_flag_errors_name_their_flag(command, message, capsys):
    assert cli.main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("engine", ["tableaux", "lattice", "both"])
def test_compute_n0_exit_2(engine):
    out = run_cli("compute", "--beta", "2,1", "--n", "0", "--engine", engine)
    assert out.returncode == 2
    assert out.stderr == "error: --n must be at least 1\n"
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


BAD_M = [
    ("2;1", "0", "--M must be at least the number of parts (1)"),
    ("2;1", "-3", "--M must be at least the number of parts (1)"),
    ("2,1;1,0", "1", "--M must be at least the number of parts (2)"),
    ("2;1", "1", "--beta does not fit --M 1: part 2 exceeds box width 0"),
    ("2,2;1,0", "3", "--beta does not fit --M 3: part 2 exceeds box width 1"),
]


@pytest.mark.parametrize("beta, M, message", BAD_M)
def test_stats_bad_M_exit_2(beta, M, message, capsys):
    assert cli.main(["stats", "--beta", beta, "--M", M]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("beta, M, message", BAD_M)
def test_stats_refuses_bad_M_before_any_statistic(beta, M, message, monkeypatch, capsys):
    # m_bruteforce is the costly statistic: 9 s on 300 parts of 300
    calls = []
    monkeypatch.setattr(cli, "m_bruteforce", calls.append)
    assert cli.main(["stats", "--beta", beta, "--M", M]) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    "stats --beta 3,3;3,1 --gamma 2,1;1,0 --M 0",  # skew
    "stats --beta 2,1;1 --M -5",  # unequal part counts
])
def test_stats_M_needs_a_straight_equal_length_shape(argv, capsys):
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --M needs a straight shape with equal part counts\n"


def test_stats_dtilde(capsys):
    assert cli.main(["stats", "--beta", "2,1;1,0", "--M", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["dtilde"] == -2


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
    out = run_cli("verify", "all", "--quick")
    assert out.returncode == 0
    assert out.stdout.strip().splitlines()[-1].startswith("summary:")


def test_verify_deterministic_output():
    a = run_cli("verify", "all", "--quick", "--format", "json")
    b = run_cli("verify", "all", "--quick", "--format", "json")
    assert a.stdout == b.stdout


def test_verify_bad_identity_exit_2():
    out = run_cli("verify", "nonsense")
    assert out.returncode == 2


# First stdout line of `lltlattice verify <identity>` with default
# parameters, as printed before the verify registry replaced the per-identity
# dispatch; skew-cauchy (one box by default) and engine-equivalence came later,
# lstar's params later gained the engine it reads, and engine-equivalence
# later checked a fixed family instead of seeded random draws.
DEFAULT_VERIFY_LINES = {
    "ybe": "PASS ybe k=2 mode=symbolic checked=4096",
    "lstar-ybe": "PASS lstar-ybe k=2 mode=symbolic checked=4096",
    "symmetry": 'PASS symmetry {"engine": "tableaux", "n": 2, "shape": "1;1/0;0"}',
    "inv-coinv": 'PASS inv-coinv {"m": 1, "n": 2, "shape": "1;1/0;0"}',
    "hl": 'PASS hl {"engine": "tableaux", "mu": [2, 1], "n": 2}',
    "modified-hl": 'PASS modified-hl {"mu": [2, 1], "n": 2}',
    "box-skew": 'PASS box-skew {"M": 4, "engine": "tableaux", "lam": [[1, 0], [1, 1]], "n": 2}',
    "complement": 'PASS complement {"M": 4, "engine": "tableaux", "lam": [[1, 0], [1, 1]], "n": 2}',
    "lstar": 'PASS lstar {"M": [3, 4, 5], "engine": "tableaux", "lam": [[1, 0], [1, 1]], "n": 2}',
    "cauchy": 'PASS cauchy {"D": 3, "engine": "tableaux", "k": 2, "n": 2}',
    "cauchy-rot": 'PASS cauchy-rot {"D": 3, "k": 2, "n": 2}',
    "skew-cauchy": 'PASS skew-cauchy {"D": 3, "k": 2, "mu": [[1, 0], [0, 0]], "n": 2}',
    "engine-equivalence": ('PASS engine-equivalence '
                           '{"components": [1, 2], "max_part": 2, "max_rows": 2, "n": [1, 2, 3]}'),
}


@pytest.mark.parametrize("identity", sorted(DEFAULT_VERIFY_LINES))
def test_verify_default_output_golden(identity, capsys):
    assert cli.main(["verify", identity]) == 0
    out = capsys.readouterr().out
    assert out == DEFAULT_VERIFY_LINES[identity] + "\nsummary: 1/1 passed\n"


@pytest.mark.parametrize("identity", ["symmetry", "hl", "box-skew", "complement", "lstar", "cauchy"])
def test_verify_engine_reaches_the_verifier(identity):
    # the identities that read --engine accept it and pass it on; without the
    # flag they run tableaux, as the default lines above show
    argv = ["verify", identity, "--engine", "lattice"]
    assert cli.main(argv) == 0
    assert cli.VERIFY[identity][2](cli._PARSER.parse_args(argv))["engine"] == "lattice"


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("fmt, golden", [("text", "txt"), ("json", "jsonl")])
def test_verify_all_quick_output_golden(fmt, golden, capsys):
    # the quick suite runs numeric YBE at k = 3, which no single-identity
    # golden above reaches
    assert cli.main(["verify", "all", "--quick", "--format", fmt]) == 0
    expected = (GOLDEN / f"verify_all_quick.{golden}").read_text()
    assert capsys.readouterr().out == expected


def test_verify_all_output_golden(capsys):
    # the full suite: 9 more shapes, the Cauchy grid, skew-cauchy and
    # engine-equivalence, none of which the quick suite runs
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify_all.txt").read_text()


def _identity_parsers(parser=cli._PARSER) -> dict[str, argparse.ArgumentParser]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = sub.choices["verify"]
    return next(a for a in verify._actions if a.dest == "identity").choices


def test_verify_registry_is_complete():
    for module, verifier, build, flags in cli.VERIFY.values():
        assert callable(getattr(module, verifier)) and callable(build)
        assert set(flags.split()) <= set(cli._VERIFY_FLAGS)
    assert list(_identity_parsers(cli.build_parser())) == [*cli.VERIFY, "all"]
    assert set(DEFAULT_VERIFY_LINES) == set(cli.VERIFY)
    parse = cli.build_parser().parse_args
    for quick in (False, True):
        runs = [parse(["verify", *c.split()]) for c in cli._suite(quick)]
        if not quick:
            assert {run.identity for run in runs} == set(cli.VERIFY)
        for run in runs:
            assert isinstance(cli.VERIFY[run.identity][2](run), dict)


class _Reads:
    """A parsed namespace that records the names read from it."""

    def __init__(self, args):
        self.args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.args, name)


# extra arguments that take each builder down each of its branches
BUILDER_BRANCHES = {
    "ybe": [[], ["--mode", "numeric"]],
    "lstar-ybe": [[], ["--mode", "numeric"]],
    "skew-cauchy": [[], ["--mu", "1,0;0,0"]],
}


@pytest.mark.parametrize("identity", list(cli.VERIFY))
def test_verify_declares_the_flags_its_builder_reads(identity):
    _, _, build, flags = cli.VERIFY[identity]
    read = set()
    for extra in BUILDER_BRANCHES.get(identity, [[]]):
        args = _Reads(cli._PARSER.parse_args(["verify", identity, *extra]))
        build(args)
        read |= args.read
    assert read == set(flags.split())
    declared = {action.dest for action in _identity_parsers()[identity]._actions}
    assert declared == read | {"help", "format"}


def _refusal(command, flag_args) -> str:
    """argparse's stderr for flag arguments that the command (such as
    ["verify", "ybe"]) does not declare: the usage of the command's own
    parser, then the arguments."""
    parser = cli._PARSER
    for name in command:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
                      ).choices[name]
    return (f"{parser.format_usage()}"
            f"{parser.prog}: error: unrecognized arguments: {' '.join(flag_args)}\n")


def _undeclared_flags():
    """(identity, flag arguments) for every verify flag that an identity (or
    `all`) does not declare, once per choice of a flag with choices."""
    for identity, parser in _identity_parsers().items():
        declared = {action.dest for action in parser._actions}
        for dest, (names, kwargs) in cli._VERIFY_FLAGS.items():
            if dest in declared:
                continue
            if kwargs.get("action") == "store_true":
                yield identity, [names[0]]
            else:
                for value in kwargs.get("choices", [str(kwargs.get("default", 1))]):
                    yield identity, [names[0], value]


BAD_VERIFY = [
    (["verify", "cauchy", "--n", "0", "--k", "1", "--degree", "2"], "--n must be at least 1"),
    (["verify", "symmetry", "--n", "0"], "--n must be at least 1"),
    (["verify", "hl", "--n", "0"], "--n must be at least 1"),
    (["verify", "box-skew", "--n", "0"], "--n must be at least 1"),
    (["verify", "skew-cauchy", "--n", "0"], "--n must be at least 1"),
    (["verify", "ybe", "--k", "-1"], "--k must be at least 0"),
    (["verify", "cauchy-rot", "--n", "1", "--k", "1", "-D", "-1"], "--degree must be at least 0"),
    (["verify", "lstar", "--M-list", "2"],
     "--lam does not fit --M-list 2 with --n 2: part 1 exceeds box width 0"),
    (["verify", "box-skew", "--lam", "2,1;1,0", "--M", "3", "--n", "2"],
     "--lam does not fit --M 3 with --n 2: part 2 exceeds box width 1"),
    (["verify", "lstar", "--lam", "2,1;1,0", "--M-list", "3,4", "--n", "2"],
     "--lam does not fit --M-list 3,4 with --n 2: part 2 exceeds box width 1"),
    (["verify", "hl", "--mu", "2,1;1"], "--mu takes a single partition"),
    (["verify", "cauchy", "--k", "0"], "--k must be at least 1"),
    (["verify", "ybe", "--mode", "numeric", "--trials", "0"], "--trials must be at least 1"),
    (["verify", "skew-cauchy", "--mu", "2,1"], "--mu must have --k 2 components"),
    (["verify", "skew-cauchy", "--mu", "1,0;0,0", "--k", "3"], "--mu must have --k 3 components"),
    (["verify", "skew-cauchy", "--mu", "1;0", "--n", "2"],
     "--mu does not fit --n 2: (1,) must have exactly 2 parts"),
    (["verify", "skew-cauchy", "--mu", "1,0,0;0,0,0", "--n", "2"],
     "--mu does not fit --n 2: (1, 0, 0) must have exactly 2 parts"),
    (["verify", "skew-cauchy", "--mu", "1,0;0,0", "-D", "0"], "--mu must have size at most --degree"),
    (["verify", "skew-cauchy", "--mu", "2,0;0,0", "-D", "1"], "--mu must have size at most --degree"),
    (["verify", "skew-cauchy", "-D", "0"], "--degree must be at least 1 when --mu is not given"),
    (["verify", "ybe", "--k", "7"], "--k must be at most 6"),
    (["verify", "lstar-ybe", "--k", "7"], "--k must be at most 6"),
    (["verify", "box-skew", "--M", "1"], "--M must be at least --n"),
    (["verify", "complement", "--M", "1"], "--M must be at least --n"),
    (["verify", "lstar", "--M-list", "4,1"], "--M-list values must be at least --n"),
    (["verify", "lstar", "--M-list", "3,x"], "--M-list values must be integers, not '3,x'"),
    (["verify", "lstar", "--M-list", ""], "--M-list values must be integers, not ''"),
    (["verify", "lstar", "--M-list", "3,,4"], "--M-list values must be integers, not '3,,4'"),
    (["verify", "symmetry", "--beta", ""], "--beta parts must be integers, not ''"),
    (["verify", "inv-coinv", "--gamma", "1;x"], "--gamma parts must be integers, not '1;x'"),
    (["verify", "hl", "--mu", "2,,1"], "--mu parts must be integers, not '2,,1'"),
    (["verify", "skew-cauchy", "--mu", "1,0;"], "--mu parts must be integers, not '1,0;'"),
    (["verify", "box-skew", "--lam", "1.5"], "--lam parts must be integers, not '1.5'"),
]
# (argv, stderr): the builders' errors, then every flag an identity does not
# declare, which argparse refuses (the rows for --engine among them)
VERIFY_ERRORS = [(argv, f"error: {message}\n") for argv, message in BAD_VERIFY] + [
    (["verify", identity, *flag], _refusal(["verify", identity], flag))
    for identity, flag in _undeclared_flags()
]


@pytest.mark.parametrize("argv, err", VERIFY_ERRORS, ids=[" ".join(a) for a, _ in VERIFY_ERRORS])
def test_verify_bad_parameters_exit_2(argv, err, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


# a size above sys.maxsize is refused by its flag, before any work; at
# 2^63 - 1 a lattice row's column bitmask runs out of memory at once
_HUGE_SIZES = {
    "compute --beta 1 --n 99999999999999999999": f"--n must be at most {sys.maxsize}",
    "verify cauchy --n 1 --k 1 -D 99999999999999999999":
        f"--degree must be at most {sys.maxsize}",
    "verify hl --mu 99999999999999999999 --n 1": f"--mu parts must be at most {sys.maxsize}",
    "verify lstar --lam 1,0 --n 2 --M-list 99999999999999999999":
        f"--M-list values must be at most {sys.maxsize}",
    "verify lstar --lam 1,0 --n 2 --M-list 9223372036854775807": "out of memory",
    "compute --beta 99999999999999999999 --n 1": f"--beta parts must be at most {sys.maxsize}",
    "verify box-skew --lam 1,0;1,1 --M 99999999999999999999 --n 2":
        f"--M must be at most {sys.maxsize}",
}


@pytest.mark.parametrize("command", list(_HUGE_SIZES))
def test_huge_size_exit_2(command, capsys):
    assert cli.main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_HUGE_SIZES[command]}\n"


@pytest.mark.parametrize("command, refused_by", [
    ("--foo compute --beta 1 --n 1", []),   # the top-level parser, not compute's
    ("verify --foo ybe", ["verify"]),
])
def test_flag_before_the_command_is_refused_above_it(command, refused_by, capsys):
    assert cli.main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _refusal(refused_by, ["--foo"])


def test_verify_refusal_stderr(capsys):
    assert cli.main(["verify", "ybe", "--engine", "both"]) == 2
    assert capsys.readouterr().err == (
        "usage: lltlattice verify ybe [-h] [--k K] [--mode {symbolic,numeric}]\n"
        "                             [--seed SEED] [--trials TRIALS]\n"
        "                             [--format {json,text}]\n"
        "lltlattice verify ybe: error: unrecognized arguments: --engine both\n"
    )


@pytest.mark.parametrize("command, unread", [
    ("verify hl --beta 3,1", "--beta 3,1"),  # hl reads --mu
    ("verify lstar --M 6", "--M 6"),  # lstar reads --M-list, not an abbreviation of it
    ("verify symmetry --mode numeric", "--mode numeric"),
    ("verify cauchy --lam 2,1 --n 1 --k 1 -D 2", "--lam 2,1"),
    ("verify all --quick --lam 9", "--lam 9"),
    ("verify cauchy --deg 2", "--deg 2"),  # no abbreviation of --degree
])
def test_verify_flag_of_another_identity_exit_2(command, unread, capsys):
    assert cli.main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _refusal(command.split()[:2], unread.split())


@pytest.mark.parametrize("command, unread", [
    ("compute --beta 2,1 --n 2 --form json --eng tableaux", "--form json --eng tableaux"),
    ("stats --beta 2 --gam 0", "--gam 0"),
])
def test_abbreviated_flag_exit_2(command, unread, capsys):
    # compute and stats spell their flags in full, as verify does
    assert cli.main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _refusal(command.split()[:1], unread.split())
    assert captured.err.startswith(f"usage: lltlattice {command.split()[0]} [-h] --beta BETA")


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("lltlattice ")]
    assert len(lines) >= 10
    for line in lines:
        args = cli._PARSER.parse_args(shlex.split(line, comments=True)[1:])
        assert args.func in (cli.cmd_compute, cli.cmd_stats, cli.cmd_verify), line


def test_verify_workers_flag_is_gone(capsys):
    assert cli.main(["verify", "all", "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --workers 2" in captured.err


def test_cli_import_loads_no_process_pool():
    probe = (
        "import sys, lltlattice.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["verify", "all", "--quick"],
                                  ["compute", "--beta", "3,2;2,1;2,0", "--n", "2"]],
                         ids=["verify", "compute"])
def test_closed_stdout_exits_141_silently(argv, unbuffered):
    # the reader of stdout is gone before the command starts, as in
    # `lltlattice verify all --quick | head -1`: not a verification failure
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "lltlattice", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (141, "")


def test_verify_failure_exit_1(monkeypatch, capsys):
    vars = VarSet(nx=1)

    def witness():
        return {
            "context": "forced",
            "lhs": LaurentPoly.one(vars).to_json_dict(),
            "rhs": LaurentPoly.zero(vars).to_json_dict(),
        }

    def failing(shape, n, engine="tableaux"):
        return IdentityReport("symmetry", {"n": n}, "FAIL", witness())

    monkeypatch.setattr(identities, "verify_symmetry", failing)
    assert cli.main(["verify", "symmetry"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == 'FAIL symmetry {"n": 2}'
    assert lines[1] == "  context: forced"
    assert lines[-1] == "summary: 0/1 passed"
    assert cli.main(["verify", "symmetry", "--format", "json"]) == 1
    report, summary = capsys.readouterr().out.splitlines()
    assert json.loads(report) == {
        "identity": "symmetry", "params": {"n": 2}, "status": "FAIL", "witness": witness(),
    }
    assert summary == "summary: 0/1 passed"


def test_compute_engine_mismatch_exit_3(monkeypatch, capsys):
    def mismatch(shape, n, engine):
        one = LaurentPoly.one(VarSet(nx=n))
        raise EngineMismatch(shape, n, one, one + one)

    monkeypatch.setattr(cli, "llt", mismatch)
    assert cli.main(["compute", "--beta", "1", "--n", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("engine mismatch:\n  tableaux: ")


def test_verify_engine_mismatch_exit_3(monkeypatch, capsys):
    def mismatch(shape, n, engine):
        one = LaurentPoly.one(VarSet(nx=n))
        raise EngineMismatch(shape, n, one, one + one)

    monkeypatch.setattr(cli, "llt", mismatch)
    assert cli.main(["compute", "--beta", "1;1", "--n", "2"]) == 3
    compute_err = capsys.readouterr().err
    monkeypatch.setattr(identities, "llt", mismatch)
    assert cli.main(["verify", "symmetry", "--engine", "both"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == compute_err
    assert captured.err.startswith("engine mismatch:\n  tableaux: ")


@pytest.mark.parametrize("argv", [["verify", "symmetry"], ["verify", "all", "--quick"]])
def test_verify_error_after_the_builders_exit_2(argv, monkeypatch, capsys):
    def boom(shape, n, engine="tableaux"):
        raise ValueError("boom")

    monkeypatch.setattr(identities, "verify_symmetry", boom)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"


def test_main_alone_maps_errors_to_exit_codes():
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("cmd_compute", "cmd_stats", "cmd_verify"):
        assert not any(isinstance(node, ast.Try) for node in ast.walk(functions[name])), name

    def mismatch_handlers(root):  # lines of the except clauses that name EngineMismatch
        return {
            handler.lineno
            for handler in ast.walk(root)
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None
            and "EngineMismatch" in {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
        }

    assert mismatch_handlers(functions["main"])
    assert mismatch_handlers(tree) == mismatch_handlers(functions["main"])
    assert "_engine_mismatch" not in functions
