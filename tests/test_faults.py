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
    # d counts the type-1 colors below the color instead of above it; the
    # picture weights and the recursion's shift flags stay as they are
    ("crossing d counts the colors below", "yangbaxter.py",
     ">> i + 1", "& ((1 << i) - 1)", ["ybe k=2", "ybe k=3", "lstar-ybe k=2"]),
    # the signed contraction adds the right side instead of subtracting it;
    # the failing blocks' reruns keep that sign, so no boundary's sides agree
    ("right side added, not subtracted", "yangbaxter.py",
     "droite: int = -1", "droite: int = 1", _YBE_CASES),
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
    # the fold's last level: the next-to-last component's coinversions
    # against the last one are dropped
    ("last fold level ignores its table", "tableaux.py",
     "yield map(key_j.__add__, last if row is None else map(add, last, row[j]))",
     "yield map(key_j.__add__, last)",
     ["inv-coinv m=3 n=2 shape=3;2/0;0", "inv-coinv m=3 n=2 shape=3,3;3,1/2,1;1,0",
      "hl engine=tableaux mu=[3, 2] n=2"]),
    # the coinversion table's spread: every filling of a reads the row of
    # the first filling's v-entries
    ("table rows all read the first v-entries", "tableaux.py",
     "return list(map(rows.__getitem__, at_v))", "return [rows[at_v[0]]] * len(at_v)",
     ["symmetry engine=tableaux n=2 shape=3;2/0;0", "inv-coinv m=3 n=2 shape=3;2/0;0",
      "symmetry engine=tableaux n=2 shape=3,3;3,1/2,1;1,0",
      "inv-coinv m=3 n=2 shape=3,3;3,1/2,1;1,0", "hl engine=tableaux mu=[3, 2] n=2"]),
    # one pair of components' share of the rotation offset d(lam), which
    # counts ties as well
    ("pair d-count counts ties", "shapes.py", "label_b < label_a", "label_b <= label_a",
     ["box-skew M=4 engine=tableaux lam=[[1, 0], [1, 1]] n=2",
      "lstar M=[3, 4, 5] engine=tableaux lam=[[1, 0], [0, 0]] n=2", "cauchy-rot D=3 k=2 n=1"]),
    # the weights cache keyed by component and n only: every later layout
    # reads the weights packed for the first field width seen
    ("weights cache key without the field width", "tableaux.py",
     "@lru_cache(maxsize=1024)\ndef _filling_weights(",
     "@lambda weights: lambda *key, first={}: first.setdefault(key[:3], weights(*key))\n"
     "def _filling_weights(",
     ["symmetry engine=tableaux n=2 shape=2/0", "inv-coinv m=0 n=2 shape=2/0",
      "hl engine=tableaux mu=[2, 1] n=2", "box-skew M=4 engine=tableaux lam=[[1, 0], [1, 1]] n=2",
      "complement M=4 engine=tableaux lam=[[2, 1], [1, 0]] n=2",
      "lstar M=[3, 4, 5] engine=tableaux lam=[[1, 0], [0, 0]] n=2"]),
    # survivor: the quick run has no skew-Cauchy case, and the other Cauchy
    # drivers start the kernel at 1, grade 0; the seeded kernel then runs past
    # x-degree D, which test_seeded_kernel_matches_skew_reference fails
    ("kernel started at grade 0, not its degree", "identities.py",
     "[{} for _ in range(D - degree)]", "[{} for _ in range(D)]", []),
    # box/lam in a box one column wider than the one check_box_tuple fitted
    ("box-over-lam one column wider", "identities.py",
     "(M - n,)", "(M - n + 1,)", ["box-skew M=4 engine=tableaux lam=[[1, 0], [1, 1]] n=2"]),
    # survivor: no t exponent that the quick run decodes is negative or
    # passes its field's mask; the decode tests of test_algebra.py fail
    ("decode masks the last field", "algebra.py",
     "[(self.top, -1)]", "[(self.top, self.mask)]", []),
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
