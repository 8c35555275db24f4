"""Every module-level import in the package's modules is used by the module,
every private module-level function or class is used by the package, every
public one that the package does not use is listed with its reason, no
function imports anything, no module imports the tests' helpers, no module
reads argparse's private parser tree or derives its own parser class, the
CLI reads no report's fields and no polynomial's terms, no module decorates a function with a functools cache (nothing is kept between
calls), every function that calls itself is listed with what bounds its
depth, one function owns the integer range rule, one method owns the packed
field width, one function counts the plain face weight's exponents, one
function turns a partition's parts into label columns, one method reads a
configuration's levels as label masks, one assignment reads the
single-color picture tables, every file parses as the oldest supported
Python, every function of the package runs under the CLI or is listed with
why it stays, and every committed BENCH_*.json record parses, has the keys
that all of them share, and claims a gain in an end-to-end metric on a
workload that BENCHMARK.json names."""

import ast
import importlib
import inspect
import io
import json
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import CodeType, FunctionType, ModuleType

import pytest

from lltlattice import algebra, cli, lattice, shapes

SRC = Path(__file__).resolve().parents[1] / "src" / "lltlattice"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    source = "from .shapes import check_partition, check_shape_tuple\ncheck_partition(())\n"
    assert _unused_imports(source) == ["line 1: check_shape_tuple"]


def _references(node) -> Counter:
    """Names that Name, Attribute and import-alias nodes under node refer to."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name] += 1
    return refs


def _unreferenced(sources: dict[str, str], private: bool, named=()) -> list[str]:
    """Private (or public) module-level functions and classes that nothing
    outside their own definition refers to; a name in `named` counts as
    referred to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = sum((_references(tree) for tree in trees.values()), Counter(named))
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and refs[node.name] == _references(node)[node.name]
    ]


def test_no_dead_private_helpers():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert _unreferenced(sources, private=True) == []


def test_guard_sees_a_dead_helper():
    sources = {
        "a.py": "def _used():\n    return _used()\n\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "from .a import _used\n",
    }
    assert _unreferenced(sources, private=True) == ["a.py: _dead"]


# The functions of the package, as module.qualname, that the CLI trace of
# test_every_function_runs_or_says_why never enters, each with why it stays:
#   lemma         a statement of the paper that the tests check, not the CLI;
#   entry point   a library call that no command makes;
#   failure path  runs only when a check fails or a caller errs;
#   import        runs once, when cli is imported, before the trace starts;
#   bench         bench/spans.py wraps it by name;
#   protocol      a Python protocol method that no command needs.
# A new function that no command runs gets an entry here.  References that
# only the tests compare against live in tests/reference.py.
NEVER_RUN = {
    "algebra.LaurentPoly.monomial": "lemma: the weight of one configuration as a polynomial",
    "lattice.LatticeConfig.faces": "lemma: the faces of one configuration",
    "lattice.LatticeConfig.weight_exponents": "lemma: the weight of one configuration",
    "lattice.LatticeConfig.weight": "lemma: the weight of one configuration as a polynomial",
    "lattice.enumerate_configs": "lemma: the configurations partition_function counts",
    "lattice.ssyt_to_config": "lemma: tableau tuples to configurations, weight kept",
    "lattice.config_to_ssyt": "lemma: configurations back to tableau tuples",
    "lattice.rotate_config": "lemma: the 180-degree rotation of box configurations",
    "lattice._labels": "lemma: the label masks of one configuration's faces",
    "tableaux.complement_bijection": "lemma: the column-complement bijection",
    "tableaux._complement_one": "lemma: the column-complement bijection on one component",
    "yangbaxter.ef_weight": "lemma: the single-color E, F, Etilde and Ftilde weights",
    "yangbaxter.l_recursive": "lemma: the color recursion of the face weight",
    "yangbaxter.r_recursive": "lemma: the color recursion of the crossing weight",
    "yangbaxter._recursive_table": "lemma: the color recursion's table of k-color weights",
    "yangbaxter._table_oracle": "lemma: the color recursion's weights as a function",
    "yangbaxter._table_oracle.<locals>.weight": "lemma: one weight of the color recursion",
    "lattice.mask_of": "entry point: a 0/1-tuple edge label as a mask",
    "lattice.LatticeSpec.__post_init__": "entry point: the checks of a hand-built spec; "
                                         "both builders trust the specs they build",
    "lattice._check_columns": "entry point: the column rule of a hand-built spec",
    "lattice.masks": "entry point: edge labels as masks, which the YBE weight oracles take",
    "identities.cauchy_kernel_truncated": "entry point: the truncated Cauchy kernel as a "
                                           "polynomial; the drivers keep it packed",
    "shapes.complement": "entry point: the box complement of a checked tuple",
    "shapes.rotate": "entry point: the 180-degree rotation of a tuple; the Cauchy drivers "
                     "rotate theirs one component at a time",
    "tableaux.schur": "entry point: one-component LLT polynomials are Schur polynomials",
    "yangbaxter.r_weight": "entry point: the closed-form crossing weight",
    "algebra.LaurentPoly.__setattr__": "failure path: a polynomial refuses to change",
    "algebra.LaurentPoly.eval_rational": "failure path: numeric YBE evaluates unequal sides only",
    "identities.EngineMismatch.__init__": "failure path: the engines disagree (exit 3)",
    "yangbaxter._witness": "failure path: the first boundary where the YBE fails",
    "yangbaxter._sample_point": "failure path: numeric YBE draws its points only when some "
                                "boundary's sides differ",
    "yangbaxter._unpack": "failure path: a YBE side that differs, as a polynomial",
    "yangbaxter._differing": "failure path: the boundaries of a failing YBE block",
    "cli.build_parser": "import: the parser is built once, at import",
    "cli._with_engine": "import: VERIFY's builders are wrapped at import",
    "algebra.LaurentPoly.__add__": "bench: the algebra.add span",
    "algebra.LaurentPoly.__mul__": "bench: the algebra.mul span",
    "algebra.LaurentPoly._check_same_vars": "bench: the variable-set check of the algebra.add "
                                            "and algebra.mul spans",
    "algebra.LaurentPoly.substitute": "bench: the algebra.substitute span",
    "algebra.LaurentPoly.truncate_x": "bench: the algebra.truncate span",
    "algebra.LaurentPoly.truncate_y": "bench: the algebra.truncate span",
    "algebra.LaurentPoly.__bool__": "protocol: the zero polynomial is falsy",
    "algebra.LaurentPoly.__repr__": "protocol: a polynomial in a failed assert",
}


def test_uncalled_public_names_are_listed():
    # the verify identities name their verifiers by string
    verifiers = {verifier for _, verifier, _, _ in cli.VERIFY.values()}
    sources = {path.name: path.read_text() for path in MODULES}
    uncalled = [entry.replace(".py: ", ".")
                for entry in _unreferenced(sources, private=False, named=verifiers)]
    assert set(uncalled) <= set(NEVER_RUN)
    kinds = {NEVER_RUN[name].partition(":")[0] for name in uncalled}
    assert kinds <= {"lemma", "entry point"}


def test_guard_sees_an_uncalled_public_name():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef lemma(n):\n    return lemma(n - 1)\n\n"
                "def verify_x():\n    return 0\n",
        "b.py": "from .a import used\nVERIFY = {'x': 'verify_x'}\n",
    }
    assert _unreferenced(sources, private=False, named={"verify_x"}) == ["a.py: lemma"]
    assert _unreferenced(sources, private=False) == ["a.py: lemma", "a.py: verify_x"]


def _texts(node) -> list[str]:
    """Each string literal under node, an f-string's fields written as "…"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(part.value if isinstance(part, ast.Constant) else "…"
                        for part in node.values)]
    return [text for child in ast.iter_child_nodes(node) for text in _texts(child)]


def _range_raises(source: str, owner: str | None = None) -> list[str]:
    """The message of each ``raise ValueError`` in source that says "must be
    at least" or "must be at most", outside the module-level def ``owner``."""
    return [text for stmt in ast.parse(source).body if getattr(stmt, "name", None) != owner
            for node in ast.walk(stmt) if isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call) and getattr(node.exc.func, "id", None) == "ValueError"
            for text in _texts(node.exc) if re.search("must be at (least|most)", text)]


# the checks that compare two parameters, which no single range can state
_RELATIONAL = [
    ("cli.py", "--M must be at least the number of parts (…)"),
    ("cli.py", "… must be at least --n"),
    ("cli.py", "--degree must be at least 1 when --mu is not given"),
    ("shapes.py", "M must be at least n, not M = … with n = …"),
]


def test_range_rule_has_one_owner():
    # every integer range check, n >= 1 among them, calls shapes.check_int
    found = [(path.name, text) for path in SRC.glob("*.py") for text in _range_raises(
        path.read_text(), "check_int" if path.name == "shapes.py" else None)]
    assert sorted(found) == sorted(_RELATIONAL)
    assert _range_raises(inspect.getsource(shapes.check_int)) == [
        "… must be at least …", "… must be at most …"]
    assert 'check_int(n, "n", 1)' in inspect.getsource(shapes.check_n)


def test_guard_sees_a_second_range_rule():
    source = (
        "def _run_check(name, k, mode, seed, trials, starred):\n"
        "    if check_int(k, 'k') < 0:\n"
        "        raise ValueError(f'k must be at least 0, not {k}')\n"
        "    if mode == 'numeric' and check_int(trials, 'trials') < 1:\n"
        "        raise ValueError(f'trials must be at least 1, not {trials}')\n"
        "def cauchy_kernel_truncated(n, k, D):\n"
        "    for name, value in (('n', n), ('k', k)):\n"
        "        if value < 0:\n"
        "            raise ValueError(f'{name} must be at least 0')\n"
    )
    assert _range_raises(source) == [
        "k must be at least 0, not …", "trials must be at least 1, not …", "… must be at least 0"]
    assert _range_raises(source, "_run_check") == ["… must be at least 0"]
    relational = (
        "def f(args, M_flag, parts, M, n, mu):\n"
        "    raise ValueError(f'--M must be at least the number of parts ({parts})')\n"
        "    raise ValueError(f'{M_flag} must be at least --n')\n"
        "    raise ValueError('--degree must be at least 1 when --mu is not given'\n"
        "                     if mu is None else '--mu must have size at most --degree')\n"
        "    raise ValueError(f'M must be at least n, not M = {M} with n = {n}')\n"
    )
    assert _range_raises(relational) == [text for _, text in _RELATIONAL]


def test_every_file_parses_as_the_oldest_supported_python():
    # pyproject.toml requires Python >= 3.10; this checks the grammar only,
    # not which standard library names each file uses
    root = SRC.parents[1]
    paths = sorted(path for folder in ("src", "tests", "bench") for path in (root / folder).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _calls(source: str, name: str) -> list[str]:
    """Each call in source of a function or method named ``name``, as text."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_packing_width_rule_has_one_owner():
    # _Packing derives every field width from the bound its caller states
    sources = {path.name: path.read_text() for path in MODULES}
    widths = {name: calls for name, source in sources.items()
              if (calls := _calls(source, "bit_length"))}
    assert widths == {"algebra.py": ["max(bound, 1).bit_length()"]}
    assert widths["algebra.py"][0] in inspect.getsource(algebra._Packing.__init__)
    packings = [call for name, source in sources.items() if name != "algebra.py"
                for call in _calls(source, "_Packing")]
    assert len(packings) == 5 and not any("bit_length" in call for call in packings)


def test_guard_sees_a_packing_width_outside_algebra():
    source = "xy = _Packing(VarSet(nx=n, ny=n), max(D, 1).bit_length())\n"
    assert _calls(source, "bit_length") == ["max(D, 1).bit_length()"]
    assert _calls(source, "_Packing") == ["_Packing(VarSet(nx=n, ny=n), max(D, 1).bit_length())"]


def _calls_outside(source: str, owner: str, name: str) -> list[str]:
    """Each call in source of a function or method named ``name`` that is not
    inside the module-level def ``owner``, as text."""
    return [call for stmt in ast.parse(source).body if getattr(stmt, "name", None) != owner
            for call in _calls(ast.unparse(stmt), name)]


def _readers(source: str, name: str) -> list[str]:
    """Each read of ``name`` in source, as the module-level name that the
    statement holding it defines or assigns."""
    found = []
    for stmt in ast.parse(source).body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt]
        where = ", ".join(getattr(target, "id", getattr(target, "name", "?")) for target in targets)
        found += [where] * sum(
            (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == name)
            for node in ast.walk(stmt))
    return found


def test_picture_tables_have_one_reader():
    # each single-color weight is read once, into _BRANCHES' (weight, shift)
    # pairs; the crossing expansion, ef_weight and the recursion read those
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    for table in ("_L_PICTURES", "_R_PICTURES"):
        readers = {name: found for name, source in sources.items()
                   if (found := _readers(source, table))}
        assert readers == {"yangbaxter.py": ["_BRANCHES"]}, table


def test_guard_sees_a_second_reader_of_a_picture_table():
    source = (
        "_R = {1: 2}\n_B = {k: v for k, v in _R.items()}\n\n"
        "def f(pic):\n    return _R.get(pic)\n\n"
        "class C:\n    r = yangbaxter._R\n"
    )
    assert _readers(source, "_R") == ["_B", "f", "C"]


def test_plain_weight_rule_has_one_owner():
    # lattice._exponents alone counts the plain (x, t) of faces, and only the
    # single face and the row step call it, so verify ybe checks the weight
    # the row DP sums
    source = (SRC / "lattice.py").read_text()
    assert _calls_outside(source, "_exponents", "bit_count") == []
    assert _calls(inspect.getsource(lattice._exponents), "bit_count") == [
        "(right & present).bit_count()", "right.bit_count()"]
    readers = {path.name: found for path in SRC.glob("*.py")
               if (found := _readers(path.read_text(), "_exponents"))}
    assert readers == {"lattice.py": ["face_weight_exponents", "_row_transitions"]}


def test_guard_sees_a_second_plain_weight_rule():
    source = (
        "def _exponents(right, present, width):\n    return right.bit_count(), 0\n\n"
        "def face(L):\n    return _exponents(L, L, 1)\n\n"
        "def step(rights):\n    def inner():\n        return _exponents(1, 1, 1)\n"
        "    return sum(r.bit_count() for r in rights)\n"
    )
    assert _calls_outside(source, "_exponents", "bit_count") == ["r.bit_count()"]
    assert _readers(source, "_exponents") == ["face", "step"]


def _complement_counts(source: str) -> list[tuple[str, str]]:
    """(module-level name, text) of each ``bit_count`` call in source whose
    receiver takes a complement (``~``), as a count of one type's colors does."""
    return [(getattr(stmt, "name", "?"), ast.unparse(node)) for stmt in ast.parse(source).body
            for node in ast.walk(stmt) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "bit_count"
            and any(isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.Invert)
                    for sub in ast.walk(node.func.value))]


def test_type1_count_has_one_owner():
    # yangbaxter._type1_above alone counts the type-1 colors above a color,
    # its crossing factor's d, and both crossing expansions call it, so
    # verify ybe checks the crossing weight that r_weight gives
    counts = {path.name: found for path in SRC.glob("*.py")
              if (found := _complement_counts(path.read_text()))}
    assert counts == {"yangbaxter.py": [("_type1_above", "((J & L & ~(I | K)) >> i + 1).bit_count()")]}
    readers = {path.name: found for path in SRC.glob("*.py")
               if (found := _readers(path.read_text(), "_type1_above"))}
    assert readers == {"yangbaxter.py": ["r_weight", "_crossing_rows"]}


def test_guard_sees_a_second_type1_count():
    source = (
        "def _type1_above(i, I, J, K, L):\n    return ((J & L & ~(I | K)) >> i + 1).bit_count()\n\n"
        "def rows(k, I, J, K, L):\n    for i in range(k):\n"
        "        d = (J & L & ~(I | K) & -(2 << i)).bit_count()\n\n"
        "def weight(i, I, J, K, L):\n    return _type1_above(i, I, J, K, L)\n\n"
        "def face(right, present):\n    return (right & present).bit_count()\n"
    )
    assert _complement_counts(source) == [
        ("_type1_above", "((J & L & ~(I | K)) >> i + 1).bit_count()"),
        ("rows", "(J & L & ~(I | K) & -(2 << i)).bit_count()")]
    assert _readers(source, "_type1_above") == ["weight"]


def _names(node) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _bare_names(node) -> set[str]:
    """The names that node reads outside any subscript."""
    if isinstance(node, ast.Subscript):
        return set()
    if isinstance(node, ast.Name):
        return {node.id}
    return set().union(*map(_bare_names, ast.iter_child_nodes(node)))


def _label_rules(source: str) -> list[tuple[str, str]]:
    """Each expression in source that subtracts a part's index from the part,
    as (the module-level definition holding it, its text): ``p[..i..] - i``
    or ``p[..] - len(p)``, also through a name bound to ``p[..]`` or to
    ``enumerate``'s v in (i, v), and ``map(sub, p, range(..))``."""
    found = []
    for stmt in ast.parse(source).body:
        parts = {}   # a name bound to a part: (its partition, its index names)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                bound = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple) else [(target, value)])
                parts |= {name.id: (ast.unparse(part.value), _names(part.slice))
                          for name, part in bound
                          if isinstance(name, ast.Name) and isinstance(part, ast.Subscript)}
            elif (isinstance(node, (ast.For, ast.comprehension))
                  and isinstance(node.iter, ast.Call) and _names(node.iter.func) == {"enumerate"}
                  and isinstance(node.target, ast.Tuple)
                  and all(isinstance(name, ast.Name) for name in node.target.elts)):
                index, name = node.target.elts
                parts[name.id] = (ast.unparse(node.iter.args[0]), {index.id})
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _names(node.func) == {"map"}:
                hit = (ast.unparse(node.args[0]) in ("sub", "operator.sub")
                       and any(isinstance(arg, ast.Call) and _names(arg.func) == {"range"}
                               for arg in node.args[1:]))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                left = node.left
                if isinstance(left, ast.Subscript):
                    part = (ast.unparse(left.value), _names(left.slice))
                else:
                    part = parts.get(getattr(left, "id", None))
                lens = {ast.unparse(call.args[0]) for call in ast.walk(node.right)
                        if isinstance(call, ast.Call) and _names(call.func) == {"len"}}
                hit = part is not None and bool(_bare_names(node.right) & part[1]
                                                or part[0] in lens)
            else:
                continue
            if hit:
                found.append((getattr(stmt, "name", "?"), ast.unparse(node)))
    return found


def test_label_rule_has_one_owner():
    # shapes.label_columns alone turns parts into label columns p_m - m + 1;
    # _d_pair, column_range, m_formula and the lattice read it
    found = {path.name: rules for path in SRC.glob("*.py")
             if (rules := _label_rules(path.read_text()))}
    assert found == {"shapes.py": [("label_columns", "map(sub, p, range(len(p)))")]}
    assert "map(sub, p, range(len(p)))" in inspect.getsource(shapes.label_columns)


def test_guard_sees_a_second_label_rule():
    source = (
        "def a(p):\n    return tuple(p[m - 1] - m + 1 for m in range(1, len(p) + 1))\n\n"
        "def b(g):\n    return g[-1] - len(g) + 1\n\n"
        "def c(lam):\n    return list(map(sub, lam, range(len(lam))))\n\n"
        "def d(p):\n    return [v - i for i, v in enumerate(p)]\n\n"
        "def e(beta, a, b, i, j):\n    bi, bj = beta[a][i - 1], beta[b][j - 1]\n"
        "    return bj - j + i < bi\n\n"
        # not rules: _row_starts' beta - gamma and config_to_ssyt's inverse,
        # the step between two levels, and a column less a part
        "def f(beta, gamma, ends):\n    d = map(sub, beta, gamma)\n"
        "    return [end - g - 1 for end, g in zip(ends, gamma)]\n\n"
        "def g(r, cols, path, h, col, gamma):\n"
        "    return [r + c + m for m, c in enumerate(cols)], path[h] - path[h - 1], col - gamma[h]\n"
    )
    assert _label_rules(source) == [
        ("a", "p[m - 1] - m"), ("b", "g[-1] - len(g)"), ("c", "map(sub, lam, range(len(lam)))"),
        ("d", "v - i"), ("e", "bj - j")]


def test_label_masks_have_one_reader():
    # a configuration holds each color's columns per level; only its faces
    # read a level as label masks
    counts = {path.name: _references(ast.parse(path.read_text()))["_labels"]
              for path in SRC.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {"lattice.py": 1}
    assert "_labels(" in inspect.getsource(lattice.LatticeConfig.faces)


def _imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_only_yangbaxter_imports_random():
    # numeric Yang-Baxter is the one seeded check; every other input is fixed
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if "random" in _imported_modules(path.read_text())]
    assert importers == ["yangbaxter.py"]


def test_no_module_imports_the_test_helpers():
    # the definition-level references and the random shape generators are
    # tests/reference.py and tests/shapegen.py, for the tests alone
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if _imported_modules(path.read_text()) & {"reference", "shapegen"}]
    assert importers == []


def test_guard_sees_a_random_import():
    for source in ("import random\n", "from random import Random\n",
                   "def f():\n    import random.x as r\n"):
        assert _imported_modules(source) == {"random"}
    assert _imported_modules("from . import random\nfrom .shapes import rotate\n") == set()


ARGPARSE_INTERNALS = ("_actions", "_SubParsersAction")


def _argparse_internals(source: str) -> list[str]:
    """Each name, attribute, imported name or string in source that is one of
    the private argparse members a walk of the parser tree reads, in line
    order, as "line N: name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "attr", "name", "value"):
            name = getattr(node, field, None)
            if isinstance(name, str) and name in ARGPARSE_INTERNALS:
                found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_no_module_walks_the_parser_tree():
    # cli.build_parser records each command's own parser as it makes it, so
    # nothing reads argparse's private actions to find them again
    found = {path.name: hits for path in sorted(SRC.glob("*.py"))
             if (hits := _argparse_internals(path.read_text()))}
    assert found == {}


def test_guard_sees_a_walk_of_the_parser_tree():
    source = (
        "import argparse\n"
        "from argparse import _SubParsersAction as Sub\n\n"
        "def _leaf_parsers(parser):\n"
        "    leaves, pending = {}, [((), parser)]\n"
        "    while pending:\n"
        "        words, p = pending.pop()\n"
        "        sub = next((a for a in p._actions if isinstance(a, argparse._SubParsersAction)),\n"
        "                   None)\n"
        "        if sub is None:\n"
        "            leaves[words] = p\n"
        "        else:\n"
        "            pending += [((*words, n), c) for n, c in sub.choices.items()]\n"
        "    return leaves, getattr(parser, '_actions')\n\n"
        # not internals: the public calls, and names that only contain one
        "def build(parser, _actions_seen):\n"
        "    sub = parser.add_subparsers(dest='actions')\n"
        "    return sub.add_parser('x'), _actions_seen, parser.actions\n"
    )
    assert _argparse_internals(source) == [
        "line 2: _SubParsersAction", "line 8: _SubParsersAction", "line 8: _actions",
        "line 14: _actions"]


# what only one report kind, or a polynomial's inside, has: the CLI prints
# what reports and polynomials render, and reads none of it
REPORT_INTERNALS = ("checked", "failed", "first_failure", "witness", "terms", "t_index")


def _report_internals(source: str) -> list[str]:
    """Each name or import of ``LaurentPoly``, each ``hasattr`` call, and each
    read of an attribute in REPORT_INTERNALS (by a dot or by ``getattr`` with
    the name as a string), in line order, as "line N: name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name.rpartition(".")[2] == "LaurentPoly":
            found.append((node.lineno, "import LaurentPoly"))
        elif "LaurentPoly" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append((node.lineno, "LaurentPoly"))
        elif isinstance(node, ast.Attribute) and node.attr in REPORT_INTERNALS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr":
            found.append((node.lineno, "hasattr"))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and getattr(node.args[1], "value", None) in REPORT_INTERNALS):
            found.append((node.lineno, node.args[1].value))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_cli_prints_what_reports_and_polynomials_render():
    # each report renders its own text and JSON, and LaurentPoly its grouped
    # text, so the CLI neither tells the report kinds apart nor reads a field
    assert _report_internals((SRC / "cli.py").read_text()) == []


def test_guard_sees_the_cli_read_a_report():
    source = (
        "import json\n"
        "from .algebra import LaurentPoly, VarSet\n\n"
        "def _emit_report(report, fmt):\n"
        "    if hasattr(report, 'checked'):\n"
        "        line = f'{report.status} {report.name} checked={report.checked}'\n"
        "        if report.failed:\n"
        "            line += f' failed={report.failed}'\n"
        "        print(line, json.dumps(report.first_failure))\n"
        "    elif report.witness:\n"
        "        print(getattr(report, 'witness')['context'])\n\n"
        "def format_grouped(p: LaurentPoly) -> str:\n"
        "    ti = p.vars.t_index\n"
        "    return ' + '.join(str(e[ti]) for e in p.terms)\n\n"
        # not internals: the shared protocol, and the names of the parsed arguments
        "def cmd_verify(args, report):\n"
        "    print(report.to_text() if args.format == 'text' else report.to_json_dict())\n"
        "    return getattr(args, 'k'), report.passed, args.checked_flag\n"
    )
    assert _report_internals(source) == [
        "line 2: import LaurentPoly", "line 5: hasattr", "line 6: checked", "line 7: failed",
        "line 8: failed", "line 9: first_failure", "line 10: witness", "line 11: witness",
        "line 13: LaurentPoly", "line 14: t_index", "line 15: terms"]


def _own_parser_classes(source: str) -> list[str]:
    """Each class in source that derives from argparse's ``ArgumentParser``,
    and each ``add_subparsers`` call that passes a ``parser_class``, as
    "line N: " and the class or the call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                "ArgumentParser" in (getattr(base, "id", None), getattr(base, "attr", None))
                for base in node.bases):
            found.append((node.lineno, f"class {node.name}"))
        elif (isinstance(node, ast.Call) and any(kw.arg == "parser_class" for kw in node.keywords)
              and "add_subparsers" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))):
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_every_parser_is_argparses_own():
    # each command's own parser refuses what it does not declare, and the
    # root parser names every argument it cannot place, so argparse alone
    # refuses arguments
    found = {path.name: hits for path in sorted(SRC.glob("*.py"))
             if (hits := _own_parser_classes(path.read_text()))}
    assert found == {}


def test_guard_sees_a_parser_subclass():
    source = (
        "import argparse\n"
        "from argparse import ArgumentParser\n\n"
        "class _CommandParser(argparse.ArgumentParser):\n"
        '    """Refuses, with its own usage, the arguments it does not declare itself."""\n\n'
        "    def parse_known_args(self, args=None, namespace=None):\n"
        "        namespace, extra = super().parse_known_args(args, namespace)\n"
        "        if extra:\n"
        "            self.error(f\"unrecognized arguments: {' '.join(extra)}\")\n"
        "        return namespace, extra\n\n"
        "class _Quiet(ArgumentParser):\n"
        "    pass\n\n"
        # not a parser subclass, nor a parser_class: a namespace, and subparsers
        # of argparse's own parser
        "class _Args(argparse.Namespace):\n"
        "    pass\n\n"
        "def build_parser():\n"
        "    parser = argparse.ArgumentParser(prog='lltlattice')\n"
        "    sub = parser.add_subparsers(dest='command', required=True, parser_class=_CommandParser)\n"
        "    return parser, sub.add_parser('verify').add_subparsers(dest='identity')\n"
    )
    assert _own_parser_classes(source) == [
        "line 4: class _CommandParser", "line 13: class _Quiet",
        "line 21: parser.add_subparsers(dest='command', required=True, "
        "parser_class=_CommandParser)"]


def _function_imports(source: str) -> list[str]:
    """Imports inside function bodies, which would hide a module's
    dependencies (and any import cycle) from its header."""
    found = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(func):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    found.setdefault(sub.lineno, func.name)
    return [f"line {line}: {name}" for line, name in sorted(found.items())]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert _function_imports(path.read_text()) == []


def test_guard_sees_an_import_inside_a_function():
    source = (
        "import random\n\n"
        "def llt(shape):\n"
        "    from .lattice import build_lattice\n"
        "    return build_lattice(shape)\n"
    )
    assert _function_imports(source) == ["line 4: llt"]


# Every function of the package that calls itself, as module.qualname, with
# what bounds its depth: Python stops a recursion at about 1,000 frames.
RECURSIONS = {
    "tableaux._fold": "components with two or more fillings: at least 2^depth tuples",
}


def _own_calls(func):
    """The calls in func's body, not in the defs, lambdas or classes it holds."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _calls_itself(func) -> bool:
    """Whether func calls its own name, bare or as an attribute; a
    ``super().name(...)`` call reaches another function."""
    for call in _own_calls(func):
        target = call.func
        if isinstance(target, ast.Name) and target.id == func.name:
            return True
        if isinstance(target, ast.Attribute) and target.attr == func.name:
            via = target.value
            if not (isinstance(via, ast.Call) and getattr(via.func, "id", None) == "super"):
                return True
    return False


def _recursions(sources: dict[str, str]) -> list[str]:
    """module.qualname of every def in ``sources`` that calls itself."""
    found = []
    for name, source in sources.items():
        scopes = [(ast.parse(source), name.removesuffix(".py") + ".")]
        while scopes:
            node, prefix = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _calls_itself(child):
                        found.append(prefix + child.name)
                    scopes.append((child, f"{prefix}{child.name}.<locals>."))
                elif isinstance(child, ast.ClassDef):
                    scopes.append((child, f"{prefix}{child.name}."))
                else:
                    scopes.append((child, prefix))
    return sorted(found)


def test_every_recursion_states_its_bound():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert _recursions(sources) == sorted(RECURSIONS)


def test_guard_sees_a_new_recursion():
    sources = {
        "identities.py": (
            "def _rearrangements(parts: tuple):\n"
            "    if not parts:\n"
            "        yield ()\n"
            "    for i in map(parts.index, dict.fromkeys(parts)):\n"
            "        yield from ((parts[i], *rest)\n"
            "                    for rest in _rearrangements(parts[:i] + parts[i + 1:]))\n"
        ),
        "a.py": (
            "class Report(dict):\n"
            "    def copy(self):\n"
            "        return super().copy()\n\n"
            "    def walk(self, depth):\n"
            "        return [] if not depth else self.walk(depth - 1)\n\n"
            "def count(xs):\n"
            "    def step(k):\n"
            "        return step(k - 1) if k else 0\n"
            "    return step(len(xs))\n"
        ),
    }
    assert _recursions(sources) == [
        "a.Report.walk", "a.count.<locals>.step", "identities._rearrangements",
    ]


CACHE_DECORATORS = ("cache", "lru_cache", "cached_property")


def _cache_decorators(sources: dict[str, str]) -> list[str]:
    """module.function of every function the sources decorate with
    ``functools.cache``, ``lru_cache`` or ``cached_property``, sorted."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(dec, "id", getattr(dec, "attr", None)) in CACHE_DECORATORS:
                        found.append(f"{module}.{node.name}")
    return sorted(found)


def test_no_module_keeps_a_cache():
    # nothing is kept from one call to the next: a tableaux._ComponentTable
    # and the pairs of shapes._pair_triples each live for one call
    sources = {f"lltlattice.{path.stem}": path.read_text() for path in SRC.glob("*.py")}
    assert len(sources) == len(MODULES) + 1 and _cache_decorators(sources) == []


def test_guard_sees_a_cache_decorator():
    source = (
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n\n"
        "@cache\ndef loose(k):\n    return k\n\n"
        "@functools.lru_cache(maxsize=4)\ndef tight(k):\n    return k\n\n"
        "@lru_cache\ndef bare(k):\n    return k\n\n"
        "class Shape:\n"
        "    @functools.cached_property\n    def cells(self):\n        return ()\n\n"
        "    @property\n    def k(self):\n        return 1\n\n"
        "def plain(k):\n    return k\n"
    )
    assert _cache_decorators({"guardcheck.caches": source}) == [
        "guardcheck.caches.bare", "guardcheck.caches.cells",
        "guardcheck.caches.loose", "guardcheck.caches.tight",
    ]


def _def_count(source: str) -> int:
    return sum(isinstance(node, ast.FunctionDef) for node in ast.walk(ast.parse(source)))


def _functions(module: ModuleType) -> dict[CodeType, str]:
    """code -> module.qualname of every def in module's file: its functions
    (a cached one through ``__wrapped__``), the methods, properties and
    classmethods of its classes, and the defs nested in any of them, named
    after their parent (``co_qualname`` is Python 3.11+).  Lambdas and
    comprehensions are left out."""
    stem = module.__name__.rpartition(".")[2]
    found = {}

    def add(code: CodeType, name: str):
        # a lambda or comprehension is named <lambda>, <listcomp>, ...
        if code.co_filename == module.__file__ and code.co_name[0] != "<" and code not in found:
            found[code] = name
            for const in code.co_consts:
                if isinstance(const, CodeType):
                    add(const, f"{name}.<locals>.{const.co_name}")

    for obj in vars(module).values():
        for member in vars(obj).values() if isinstance(obj, type) else [obj]:
            if isinstance(member, property):
                funcs = [member.fget, member.fset, member.fdel]
            else:
                funcs = [getattr(member, "__func__", getattr(member, "__wrapped__", member))]
            for func in funcs:
                if isinstance(func, FunctionType):
                    add(func.__code__, f"{stem}.{func.__qualname__}")
    return found


def _never_run(functions: dict[CodeType, str], run) -> list[str]:
    """The sorted names of the functions whose code ``run()`` never enters.

    The trace function sees each Python frame start and returns None, so no
    line or return event follows; a profile function would also be called on
    every C call and every return, which makes the trace slower."""
    entered = set()

    def enter(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(previous)
    return sorted(name for code, name in functions.items() if code not in entered)


GOLDEN_EXIT_CODES = Path(__file__).resolve().parent / "golden" / "cli" / "exit_codes.json"
TRACED_COMMANDS = {  # command -> exit code
    **json.loads(GOLDEN_EXIT_CODES.read_text()),
    "verify all": 0,
    "verify all --quick --format json": 0,
    "stats --beta 3,3;3,1 --gamma 2,1;1,0": 0,
    "stats --beta 3;2": 0,
    "stats --beta 2,1;1,0 --M 5": 0,
}


def _trace_cli() -> tuple[list[str], dict[str, int]]:
    """The package's functions that ``cli.main`` never enters on
    TRACED_COMMANDS, and each command's exit code."""
    functions = {}
    for path in MODULES:
        if path.name != "__main__.py":   # it runs the CLI
            module = importlib.import_module(f"lltlattice.{path.stem}")
            functions |= _functions(module)
    assert len(functions) == sum(_def_count(path.read_text()) for path in MODULES)
    codes = {}

    def run():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for command in TRACED_COMMANDS:
                codes[command] = cli.main(command.split())

    return _never_run(functions, run), codes


def test_every_function_runs_or_says_why():
    never_run, codes = _trace_cli()
    assert codes == TRACED_COMMANDS
    assert never_run == sorted(NEVER_RUN)
    kinds = {reason.partition(":")[0] for reason in NEVER_RUN.values()}
    assert kinds <= {"lemma", "entry point", "failure path", "import", "bench", "protocol"}


def test_guard_sees_a_function_that_never_runs():
    source = (
        "import functools\n\n"
        "@functools.lru_cache(maxsize=2)\ndef cached(k):\n    return k\n\n"
        "square = lambda v: [w * w for w in v]\n\n"
        "class Poly:\n"
        "    @classmethod\n    def zero(cls):\n        return cls()\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "    def run(self):\n        def inner():\n            return square([1])\n"
        "        return inner()\n\n"
        "def skipped():\n    def nested():\n        pass\n"
    )
    module = ModuleType("tracecheck")
    module.__file__ = "tracecheck.py"
    exec(compile(source, module.__file__, "exec"), vars(module))
    functions = _functions(module)
    assert len(functions) == _def_count(source) == 7
    assert _never_run(functions, lambda: module.Poly.zero().run()) == [
        "tracecheck.Poly.size", "tracecheck.cached", "tracecheck.skipped",
        "tracecheck.skipped.<locals>.nested",
    ]


# -- the committed benchmark records -------------------------------------------

ROOT = SRC.parents[1]
BENCH_KEYS = {"layer", "change", "parent_commit", "harness", "machine", "claim", "workloads"}


def _bench_record_faults(path: Path) -> list[str]:
    """What keeps one BENCH_*.json from being a benchmark record: it does
    not parse as a JSON object, or it lacks a key every record has."""
    try:
        record = json.loads(path.read_text())
    except ValueError as error:
        return [f"{path.name}: not JSON ({error})"]
    if not isinstance(record, dict):
        return [f"{path.name}: not a JSON object"]
    return [f"{path.name}: no {key!r}" for key in sorted(BENCH_KEYS - record.keys())]


def test_every_bench_record_parses_and_has_the_shared_keys():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    assert [fault for path in paths for fault in _bench_record_faults(path)] == []


def _bench_claim_faults(path: Path, benchmark: dict) -> list[str]:
    """What keeps one record's claim from naming what it claims: it does not
    start with ``<metric> on <workload>``, or the benchmark has no such
    end-to-end metric or no such workload."""
    claim = json.loads(path.read_text())["claim"]
    named = re.match(r"(\S+) on ([\w-]+)", claim)
    if named is None:
        return [f"{path.name}: claim does not start with '<metric> on <workload>'"]
    metric, workload = named.groups()
    faults = []
    if metric not in {entry["name"] for entry in benchmark["end_to_end"]}:
        faults.append(f"{path.name}: no end-to-end metric {metric!r}")
    if workload not in {entry["name"] for entry in benchmark["workloads"]}:
        faults.append(f"{path.name}: no workload {workload!r}")
    return faults


def test_every_bench_claim_names_a_metric_and_a_workload():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert [fault for path in paths for fault in _bench_claim_faults(path, benchmark)] == []


def test_guard_sees_a_claim_that_names_nothing(tmp_path):
    benchmark = {"end_to_end": [{"name": "wall_s"}], "workloads": [{"name": "cauchy-sweep"}]}
    claims = {"a": "wall_s on cauchy-sweep: better in 9 of 10 pairs",
              "b": "op_p50 on cauchy-sweep: better", "c": "wall_s on cauchy_sweep: better",
              "d": "faster everywhere"}
    for name, claim in claims.items():
        (tmp_path / f"BENCH_{name}.json").write_text(json.dumps({"claim": claim}))
    faults = [fault for path in sorted(tmp_path.glob("BENCH_*.json"))
              for fault in _bench_claim_faults(path, benchmark)]
    assert faults == ["BENCH_b.json: no end-to-end metric 'op_p50'",
                      "BENCH_c.json: no workload 'cauchy_sweep'",
                      "BENCH_d.json: claim does not start with '<metric> on <workload>'"]


def test_guard_sees_a_broken_bench_record(tmp_path):
    record = dict.fromkeys(BENCH_KEYS - {"claim"}, "")
    (tmp_path / "BENCH_a.json").write_text(json.dumps(record))
    (tmp_path / "BENCH_b.json").write_text("{")
    (tmp_path / "BENCH_c.json").write_text("[]")
    faults = [fault for path in sorted(tmp_path.glob("BENCH_*.json"))
              for fault in _bench_record_faults(path)]
    assert faults[0] == "BENCH_a.json: no 'claim'"
    assert faults[1].startswith("BENCH_b.json: not JSON (")
    assert faults[2:] == ["BENCH_c.json: not a JSON object"]
