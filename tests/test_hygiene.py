"""Every module-level import in the package's modules is used by the module,
every private module-level function or class is used by the package, every
public one that the package does not use is listed with its reason, no
function imports anything, no module imports the tests' helpers, every
functools cache is bounded, and one function owns the rule that n is at
least 1."""

import ast
import functools
import gc
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from lltlattice import cli, shapes

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


# Public functions and classes that no module of the package calls (its
# __init__ only re-exports), each with why it stays: a lemma of the paper or
# a library entry point.  References that only the tests compare against
# live in tests/reference.py.
UNCALLED_PUBLIC = {
    "lattice.py: enumerate_configs": "lemma: the configurations partition_function counts",
    "lattice.py: ssyt_to_config": "lemma: tableau tuples to configurations, weight kept",
    "lattice.py: config_to_ssyt": "lemma: configurations back to tableau tuples",
    "lattice.py: rotate_config": "lemma: the 180-degree rotation of box configurations",
    "shapes.py: complement": "entry point: the box complement of a checked tuple",
    "tableaux.py: complement_bijection": "lemma: the column-complement bijection",
    "tableaux.py: schur": "entry point: one-component LLT polynomials are Schur polynomials",
    "yangbaxter.py: r_weight": "entry point: the closed-form crossing weight",
    "yangbaxter.py: ef_weight": "lemma: the single-color E, F, Etilde and Ftilde weights",
    "yangbaxter.py: l_recursive": "lemma: the color recursion of the face weight",
    "yangbaxter.py: r_recursive": "lemma: the color recursion of the crossing weight",
}


def test_uncalled_public_names_are_listed():
    # the verify identities name their verifiers by string
    verifiers = {verifier for _, verifier, _, _ in cli.VERIFY.values()}
    sources = {path.name: path.read_text() for path in MODULES}
    assert sorted(_unreferenced(sources, private=False, named=verifiers)) == sorted(UNCALLED_PUBLIC)
    kinds = {reason.partition(":")[0] for reason in UNCALLED_PUBLIC.values()}
    assert kinds <= {"lemma", "entry point"}


def test_guard_sees_an_uncalled_public_name():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef lemma(n):\n    return lemma(n - 1)\n\n"
                "def verify_x():\n    return 0\n",
        "b.py": "from .a import used\nVERIFY = {'x': 'verify_x'}\n",
    }
    assert _unreferenced(sources, private=False, named={"verify_x"}) == ["a.py: lemma"]
    assert _unreferenced(sources, private=False) == ["a.py: lemma", "a.py: verify_x"]


def test_variable_count_rule_has_one_owner():
    # every check that n is at least 1 calls shapes.check_n
    text = '"n must be at least 1"'
    counts = {path.name: path.read_text().count(text) for path in SRC.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {"shapes.py": 1}
    assert text in inspect.getsource(shapes.check_n)


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


LRU_CACHE = type(functools.cache(lambda: None))


def _caches(package: str) -> dict[str, int | None]:
    """module.function -> maxsize of every live functools cache that a module
    of package defines, found as the benchmark child finds the caches it
    empties: among the garbage collector's objects."""
    return {
        f"{obj.__module__}.{obj.__qualname__}": obj.cache_parameters()["maxsize"]
        for obj in gc.get_objects()
        if isinstance(obj, LRU_CACHE) and obj.__module__.startswith(package)
    }


def _decorated_caches(sources: dict[str, str]) -> set[str]:
    """module.function of every function the sources decorate with
    ``functools.cache`` or ``lru_cache``."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(dec, "id", getattr(dec, "attr", None)) in ("cache", "lru_cache"):
                        found.add(f"{module}.{node.name}")
    return found


def test_every_cache_is_bounded():
    modules = [path for path in MODULES if path.name != "__main__.py"]   # it runs the CLI
    for path in modules:
        importlib.import_module(f"lltlattice.{path.stem}")
    caches = _caches("lltlattice")
    sources = {f"lltlattice.{path.stem}": path.read_text() for path in modules}
    assert set(caches) == _decorated_caches(sources)
    assert [name for name, maxsize in caches.items() if maxsize is None] == []


def test_guard_sees_an_unbounded_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n\n"
        "@cache\ndef loose(k):\n    return k\n\n"
        "@functools.lru_cache(maxsize=4)\ndef tight(k):\n    return k\n"
    )
    namespace = {"__name__": "guardcheck.caches"}
    exec(source, namespace)
    assert _caches("guardcheck") == {"guardcheck.caches.loose": None, "guardcheck.caches.tight": 4}
    assert _decorated_caches({"guardcheck.caches": source}) == {
        "guardcheck.caches.loose", "guardcheck.caches.tight"
    }
