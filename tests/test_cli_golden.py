"""Byte-for-byte stdout and exit codes of fixed `lltlattice` commands.

Each command's stdout is in ``golden/cli/<slug>.txt`` and its exit code in
``golden/cli/exit_codes.json``.  The ten ``verify`` commands are the ones the
``cli-verify`` benchmark workload runs (copied here, so the tests do not
depend on ``bench/``); the two ``compute`` commands pin the grouped text
renderer on a large straight shape and on a skew shape whose coefficients
are 2 and 3.  The last four pin YBE runs that ``verify all`` does not make:
both checks at k = 3 symbolically, numeric ``lstar-ybe`` with three trials
in JSON, and the k = 0 edge case in numeric mode.
"""

import json
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
    "verify ybe --k 3",
    "verify lstar-ybe --k 3",
    "verify lstar-ybe --k 2 --mode numeric --trials 3 --seed 3 --format json",
    "verify ybe --k 0 --mode numeric",
]

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"


def slug(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", command).strip("_")


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_stdout_golden(command, capsys):
    code = cli.main(command.split())
    assert capsys.readouterr().out == (GOLDEN / f"{slug(command)}.txt").read_text()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[command]
