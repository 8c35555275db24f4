"""Byte-for-byte stdout and exit codes of fixed `lltlattice` commands.

Each command's stdout is in ``golden/cli/<slug>.txt`` and its exit code in
``golden/cli/exit_codes.json``.  The ten ``verify`` commands are the ones the
``cli-verify`` benchmark workload runs (copied here, so the tests do not
depend on ``bench/``); the three ``compute`` commands pin the grouped text
renderer on a large straight shape and on a skew shape whose coefficients
are 2 and 3, and the JSON form of the skew one.  The next four pin YBE runs that ``verify all`` does not make:
both checks at k = 3 symbolically, numeric ``lstar-ybe`` with three trials
in JSON, and the k = 0 edge case in numeric mode.  The last two pin gray
rows on larger boxes than ``verify all`` uses: three widths at k = 2 in
JSON, and two at k = 3, n = 3 in text.  The next two pin Cauchy runs of the
``cauchy-sweep`` benchmark workload: the rotated identity at k = 3, and the
JSON form, with its ``equalities_checked``, at n = 3.  The next two pin the
k = 3 cases of skew Cauchy (μ of one box, D = 4, n = 3) and of the box-skew
duality (λ of three rows in a 5-column box, both engines), each in JSON.
The last three commands give a flag
that their parser does not declare: one the top-level parser refuses, and the
seed and trial count that ``verify all`` and ``engine-equivalence`` no longer
take.  Each prints nothing and exits 2.  Four more files,
``verify_ybe_k_4.txt``, ``verify_lstar_ybe_k_4.txt`` and their ``k_5``
twins, pin both YBE checks at k = 4 and at k = 5, the first k where a
crossing's d reaches 4 (exit 0); the tier-1 workflow diffs them, each under
a 120-s timeout, rather than these tests.

The parser is built once, at import, so the last two tests run many
commands through it in one process and check that no call rebuilds it.
"""

import json
import random
import re
from pathlib import Path

import pytest

from lltlattice import cli

COMMANDS = [
    "verify ybe --k 2 --mode numeric --trials 2 --seed 1",
    "verify lstar-ybe --k 2 --mode numeric --trials 1 --seed 2",
    "verify ybe --k 2 --mode symbolic",
    "verify lstar-ybe --k 1 --mode symbolic",
    "verify symmetry --beta 3,2;2,1 --n 3 --engine both",
    "verify hl --mu 3,1 --n 3 --engine both",
    "verify box-skew --lam 1,0;1,1 --M 4 --n 2 --engine both",
    "verify lstar --lam 1,0;0,0 --n 2",
    "verify cauchy-rot --n 2 --k 2 -D 3",
    "verify skew-cauchy --mu 1,0;0,0 --n 2 --k 2 -D 3",
    "compute --beta 3,2;2,1;2,0 --n 4",
    "compute --beta 3,3;3,1 --gamma 2,1;1,0 --n 2",
    "compute --beta 3,3;3,1 --gamma 2,1;1,0 --n 2 --format json",
    "verify ybe --k 3",
    "verify lstar-ybe --k 3",
    "verify lstar-ybe --k 2 --mode numeric --trials 3 --seed 3 --format json",
    "verify ybe --k 0 --mode numeric",
    "verify lstar --lam 2,1;1,0 --n 2 --M-list 4,5,6 --format json",
    "verify lstar --lam 1,1,0;1,0,0 --n 3 --M-list 4,5",
    "verify cauchy-rot --n 1 --k 3 -D 5",
    "verify cauchy --n 3 --k 2 -D 3 --format json",
    "verify skew-cauchy --mu 1,0,0;0,0,0;0,0,0 --n 3 --k 3 -D 4 --format json",
    "verify box-skew --lam 2,1;1,0;0,0 --M 5 --n 2 --engine both --format json",
    "--foo compute --beta 1 --n 1",
    "verify all --seed 5",
    "verify engine-equivalence --trials 3",
]

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
SUITES = {  # verify all runs, with their goldens from tests/test_cli.py
    "verify all --quick": "verify_all_quick.txt",
    "verify all --quick --format json": "verify_all_quick.jsonl",
}


def slug(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", command).strip("_")


def golden(command: str) -> tuple[str, int]:
    """The pinned (stdout, exit code) of a golden command."""
    if command in SUITES:
        return (GOLDEN.parent / SUITES[command]).read_text(), 0
    return (GOLDEN / f"{slug(command)}.txt").read_text(), EXIT_CODES[command]


def run(command: str, capsys) -> tuple[str, str, int]:
    code = cli.main(command.split())
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_stdout_golden(command, capsys):
    out, _, code = run(command, capsys)
    assert (out, code) == golden(command)


# Commands without a golden file, with their exit codes: each must print the
# same thing every time it runs.
INTERLEAVED = {
    "verify ybe --k 7": 2,  # a parameter builder rejects it
    "verify nope": 2,  # argparse rejects it
    "--help": 0,
}


def test_reused_parser_gives_identical_output(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    goldens = [*COMMANDS, "verify all --quick --format json"]
    order = 2 * [*goldens, *INTERLEAVED]
    random.Random(17).shuffle(order)
    first = {}
    for command in order:
        out, err, code = run(command, capsys)
        if command in INTERLEAVED:
            assert code == INTERLEAVED[command]
            assert first.setdefault(command, (out, err)) == (out, err), command
        else:
            assert (out, code) == golden(command), command


def test_no_call_rebuilds_the_parser(monkeypatch, capsys):
    def rebuild():
        raise AssertionError("build_parser() called after import")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    for command in [
        "compute --beta 3,3;3,1 --gamma 2,1;1,0 --n 2",
        "compute --beta 3,3;3,1 --gamma 2,1;1,0 --n 2 --format json",
        "verify ybe --k 2 --mode symbolic",
        "verify all --quick",
    ]:
        out, _, code = run(command, capsys)
        assert (out, code) == golden(command), command
