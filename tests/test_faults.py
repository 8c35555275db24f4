"""`verify all --quick` fails on each fault in a fixed list of model faults.

Each row names a fault, the file under ``src/lltlattice`` it changes, the
exact text it replaces (found exactly once), the new text, and the cases of
``verify all --quick`` that must FAIL, each as its identity and k or params.
A row with no cases is a known survivor: the quick run must still pass it
(exit 0, no FAIL).  The fault is applied to a copy of ``src/`` under the
test's temporary directory, never in place, and the copy runs in a fresh
process.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# every YBE case of `verify all --quick`; the quick run checks the YBE nowhere else
_YBE_CASES = ["ybe k=1", "ybe k=2", "ybe k=3", "lstar-ybe k=1", "lstar-ybe k=2"]

# (name, file, old text, new text, the cases that must fail)
FAULTS = [
    ("type-2 crossing times t", "yangbaxter.py",
     "(0, 1, 1, 0): {(-1, 1, 0): 1}", "(0, 1, 1, 0): {(-1, 1, 1): 1}", _YBE_CASES),
    ("type-3 crossing times t", "yangbaxter.py",
     "(1, 0, 0, 1): {(0, 0, 0): 1},\n    (1, 1, 1, 1)",
     "(1, 0, 0, 1): {(0, 0, 1): 1},\n    (1, 1, 1, 1)", _YBE_CASES),
    ("type-4 crossing times t", "yangbaxter.py",
     "(1, 1, 1, 1): {(-1, 1, 0): 1}", "(1, 1, 1, 1): {(-1, 1, 1): 1}", _YBE_CASES),
    # the one plain weight rule, which the row DP and the YBE faces both read
    ("plain t counts the colors below", "lattice.py",
     "    while present := present >> width:\n        texp += (right & present).bit_count()",
     "    below = right\n    while below := below >> width:\n"
     "        texp += (below & present).bit_count()",
     ["ybe k=2", "ybe k=3", "lstar-ybe k=2"]),
    # the row DP's lower bound on where path j ends: path j - left must
    # still reach its top column in the rows above
    ("lower bound one column too strong", "lattice.py",
     "lo = max(lo, caps[j - left] + left)", "lo = max(lo, caps[j - left] + left + 1)",
     ["lstar M=[3, 4, 5] engine=tableaux lam=[[1, 0], [0, 0]] n=2"]),
    # survivors: a weaker bound keeps states that cannot reach the top, and
    # the partition function reads only the top's bucket, so no polynomial
    # changes; the level pins and configuration tests of test_lattice.py fail
    ("lower bound one column too weak", "lattice.py",
     "lo = max(lo, caps[j - left] + left)", "lo = max(lo, caps[j - left] + left - 1)", []),
    ("lower bound on the last row only", "lattice.py",
     "        if j >= left:", "        if not left:", []),
    # a path that leaves right sets end bit ncols, which is no face of the
    # row: unmasked, it marks the next color present at column 0
    ("present mask leaks the exit bit", "lattice.py",
     "((right | ends) & full) << bit * ncols", "(right | ends) << bit * ncols",
     ["lstar M=[3, 4, 5] engine=tableaux lam=[[1, 0], [0, 0]] n=2"]),
    # each caller's stated bound halved, so its field is one bit narrower;
    # the YBE's 6 * k // 2 makes encode refuse (exit 2), and the narrower
    # control of tests/test_packing.py covers it
    ("row DP field one bit narrow", "lattice.py",
     "spec.k * spec.ncols)", "spec.k * spec.ncols // 2)",
     ["lstar M=[3, 4, 5] engine=tableaux lam=[[1, 0], [0, 0]] n=2"]),
    ("Cauchy fields one bit narrow", "identities.py",
     "_Packing(VarSet(nx=n, ny=n), D)", "_Packing(VarSet(nx=n, ny=n), D // 2)",
     ["cauchy D=4 engine=tableaux k=1 n=1", "cauchy-rot D=3 k=2 n=1"]),
    ("tableau field one bit narrow", "tableaux.py",
     "shape.cell_count())", "shape.cell_count() // 2)",
     ["symmetry engine=tableaux n=2 shape=3;2/0;0", "inv-coinv m=3 n=2 shape=3;2/0;0",
      "symmetry engine=tableaux n=2 shape=3,3;3,1/2,1;1,0",
      "inv-coinv m=3 n=2 shape=3,3;3,1/2,1;1,0",
      "symmetry engine=tableaux n=2 shape=1;1/0;0", "inv-coinv m=1 n=2 shape=1;1/0;0",
      "symmetry engine=tableaux n=2 shape=2,1/0,0", "inv-coinv m=0 n=2 shape=2,1/0,0",
      "symmetry engine=tableaux n=2 shape=2/0", "inv-coinv m=0 n=2 shape=2/0",
      "symmetry engine=tableaux n=2 shape=2,1;0,0;3,1/2,0;0,0;0,0",
      "inv-coinv m=2 n=2 shape=2,1;0,0;3,1/2,0;0,0;0,0",
      "hl engine=tableaux mu=[2, 1] n=2", "hl engine=tableaux mu=[3, 2] n=2"]),
]


def _case(report: dict) -> str:
    """A case of `verify all` as text: its identity and what it ran on."""
    on = {"k": report["k"]} if "k" in report else report["params"]
    return " ".join([report["identity"], *(f"{key}={value}" for key, value in on.items())])


def _src_copy(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _mutate(src: Path, file: str, old: str, new: str) -> Path:
    """src with ``old`` replaced by ``new`` in one file."""
    path = src / "lltlattice" / file
    text = path.read_text()
    assert text.count(old) == 1, f"{old!r} is not found exactly once in {file}"
    path.write_text(text.replace(old, new))
    return src


def _failing_cases(src: Path) -> tuple[int, list[str]]:
    """The exit code of `verify all --quick` run from ``src`` and the cases
    it reports as FAIL, in order."""
    out = subprocess.run(
        [sys.executable, "-m", "lltlattice", "verify", "all", "--quick", "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    *reports, summary = out.stdout.splitlines() or [""]
    assert summary.startswith("summary: "), out.stderr
    failed = [_case(report) for report in map(json.loads, reports) if report["status"] == "FAIL"]
    return out.returncode, failed


def test_unmutated_copy_passes(tmp_path):
    assert _failing_cases(_src_copy(tmp_path)) == (0, [])


@pytest.mark.parametrize("name, file, old, new, cases", FAULTS, ids=[row[0] for row in FAULTS])
def test_verify_all_quick_fails_on_the_fault(tmp_path, name, file, old, new, cases):
    assert _failing_cases(_mutate(_src_copy(tmp_path), file, old, new)) == (1 if cases else 0, cases)


@pytest.mark.parametrize("old", ["(0, 1, 1, 0): {(-1, 1, 2): 1}", "(-1, 1, 0): 1}"],
                         ids=["absent", "repeated"])
def test_an_old_text_not_found_exactly_once_fails(tmp_path, old):
    with pytest.raises(AssertionError, match="is not found exactly once in yangbaxter.py"):
        _mutate(_src_copy(tmp_path), "yangbaxter.py", old, "")
