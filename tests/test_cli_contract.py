"""The CLI contract on random command lines, and output that no hash seed moves.

Seeded random argv are drawn from the flags that each command's own parser
(``cli._LEAVES``) declares, with well-formed, malformed, negative, huge
(above ``sys.maxsize``) and non-ASCII values, flags of other commands from
``cli._VERIFY_FLAGS``, stray words (some before the command's last word,
where the top-level parser reads them), missing values and ``-h``.  Each runs
through ``cli.main`` in process: it exits 0, 1, 2 or 3, no exception escapes,
an exit 0 writes nothing to stderr, and an exit 2 writes one ``error:`` line
or argparse's usage and error line.  Every case is cheap: the well-formed
sizes are small, and ``verify all`` (with ``--quick``) and ``verify
engine-equivalence`` run at most once each; every later draw of them carries
a flag they refuse.  Then two commands run in fresh processes under two
``PYTHONHASHSEED`` values and print the same bytes.
"""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lltlattice import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# well-formed values of each flag, by its dest, that keep every case cheap:
# the YBE checks at k <= 3 and the Cauchy identities at n <= 2, k <= 3, D <= 3
CHEAP = {
    "k": ["0", "1", "2", "3"],
    "n": ["1", "2"],
    "M": ["2", "3", "4", "5"],
    "M_list": ["3", "3,4", "4,5", "2,3,4"],
    "degree": ["0", "1", "2", "3"],
    "beta": ["1", "2,1", "1;1", "2;1", "2,1;1,0", "1,1;2", "2,1;1,1;2"],
    "gamma": ["0", "1", "1;0", "1,0;0,0", "0;0"],
    "mu": ["2,1", "3,2", "1", "2,2,1", "1,0;0,0", "1,0;1,0", "1;0"],
    "lam": ["1,0;1,1", "2,1;1,0", "1,0;0,0", "1;1", "2"],
    "trials": ["1", "2", "3"],
    "seed": ["0", "1", "-7", str(sys.maxsize + 1)],
}
# values that are malformed, negative, huge or not ASCII; the non-ASCII
# digits read as 1 and 2, so a flag that takes them stays cheap
ODD = ["", "-1", "-3", "x", "1.5", "1,,2", ";", "3,-1", "1;x", "nan", "--",
       str(sys.maxsize + 1), "99999999999999999999999", f"1;{sys.maxsize + 1}",
       "é", "λ;μ", "∞", "١", "２", "١,٠;٢", "\u00a0", "JSON", "both "]
# commands that cost more than a few milliseconds, each run once with these flags
ONCE = {("verify", "all"): ["--quick"], ("verify", "engine-equivalence"): []}


def _value(rng: random.Random, action) -> str:
    if rng.random() < 0.15:
        return rng.choice(ODD)
    return rng.choice(list(action.choices or CHEAP.get(action.dest, ["1"])))


def _draw(rng: random.Random, ran: set) -> list[str]:
    words = rng.choice(list(cli._LEAVES))
    if words in ONCE and words not in ran:
        ran.add(words)
        return [*words, *ONCE[words]]
    actions = [action for action in cli._LEAVES[words]._actions if action.dest != "help"]
    argv = [*words]
    for action in rng.sample(actions, len(actions)):
        if action.required or rng.random() < 0.6:
            option = action.option_strings[0]
            argv += [option, _value(rng, action)] if action.nargs != 0 else [option]
    if words in ONCE:   # refused before it runs
        argv += ["--lam", "1"]
    declared = {action.dest for action in actions}
    other = [names[0] for dest, (names, _) in cli._VERIFY_FLAGS.items() if dest not in declared]
    roll = rng.random()
    if roll < 0.1 and other:
        argv += [rng.choice(other), rng.choice(CHEAP["n"])]
    elif roll < 0.15:
        # half go before the command's last word, where the top-level parser reads them
        at = rng.choice([rng.randrange(len(words)), rng.randrange(len(words), len(argv) + 1)])
        argv.insert(at, rng.choice(["foo", "ybe", "ü", "-x", "--foo"]))
    elif roll < 0.2 and len(argv) > len(words):
        argv.pop()   # the last flag loses its value, or a switch goes
    elif roll < 0.22:
        argv.append("-h")
    return argv


def _breach(code: int, err: str) -> str | None:
    """What breaks the contract in one run's exit code and stderr, if anything."""
    if code not in (0, 1, 2, 3):
        return f"exit {code}"
    if code == 0 and err:
        return "exit 0 with stderr"
    if code == 2:
        last = err.rstrip("\n").rpartition("\n")[2]
        one_error = re.fullmatch(r"error: [^\n]*\n", err)
        argparse_error = (err.startswith("usage: lltlattice") and err.endswith("\n")
                          and re.fullmatch(r"lltlattice[^\n]*: error: [^\n]*", last))
        if not (one_error or argparse_error):
            return "exit 2 without one error line or argparse's usage"
    return None


def test_random_argv_keep_the_cli_contract(capsys):
    rng, ran, breaches, codes = random.Random(2012_02376), set(), [], set()
    refused_above = 0
    for _ in range(300):
        argv = _draw(rng, ran)
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:   # main returns a code for every outcome
            capsys.readouterr()
            breaches.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        codes.add(code)
        err = capsys.readouterr().err
        refused_above += (err.startswith(cli._PARSER.format_usage())
                          and "lltlattice: error: unrecognized arguments: " in err)
        if breach := _breach(code, err):
            breaches.append((argv, breach))
    assert breaches == []
    assert {0, 2} <= codes   # the draws reach both a run and a refusal
    assert refused_above   # and the top-level parser's refusal of a flag


def test_contract_check_sees_a_breach():
    usage = "usage: lltlattice verify ybe [-h] [--k K]\n"
    refusal = "lltlattice verify ybe: error: argument --k: invalid int value: 'x'\n"
    assert _breach(2, "error: --k must be at most 6\n") is None
    assert _breach(2, usage + refusal) is None
    assert _breach(0, "") is None and _breach(1, "") is None
    assert _breach(2, "error: a\nerror: b\n") == "exit 2 without one error line or argparse's usage"
    assert _breach(2, usage) == "exit 2 without one error line or argparse's usage"
    assert _breach(2, "Traceback (most recent call last):\n") is not None
    assert _breach(0, "warning\n") == "exit 0 with stderr"
    assert _breach(141, "") == "exit 141"


@pytest.mark.parametrize("argv", [["verify", "all", "--quick", "--format", "json"],
                                  ["compute", "--beta", "3,2;2,1;2,0", "--n", "4"]],
                         ids=["verify", "compute"])
def test_output_is_the_same_under_two_hash_seeds(argv):
    outs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        out = subprocess.run([sys.executable, "-m", "lltlattice", *argv],
                             capture_output=True, env=env)
        assert (out.returncode, out.stderr) == (0, b""), hash_seed
        outs.append(out.stdout)
    assert outs[0] and outs[0] == outs[1]
