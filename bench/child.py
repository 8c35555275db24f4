"""One benchmark child: a fresh interpreter that imports lltlattice, runs a
list of jobs with each call timed, then checks every output untimed.

Before each job it empties every ``functools`` cache of the library, so
each call starts as cold as in a fresh interpreter and its time does not
depend on the jobs that ran before it.

Reads ``{"workload", "jobs", "trace"}`` as JSON on stdin and writes one JSON
object on stdout.  ``imported`` is ``time.monotonic()`` right after the
import; the parent subtracts its own clock reading taken before the spawn.
"""

import time

import lltlattice
import lltlattice.cli
import lltlattice.identities

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import ssyt_count  # noqa: E402

from lltlattice import SkewShapeTuple, cli, identities, llt  # noqa: E402


def _shape(job) -> SkewShapeTuple:
    return SkewShapeTuple(tuple(map(tuple, job["beta"])), tuple(map(tuple, job["gamma"])))


LRU_CACHE = type(functools.cache(lambda: None))


def library_caches() -> list:
    """Every functools cache that lltlattice's modules define."""
    return [obj for obj in gc.get_objects()
            if isinstance(obj, LRU_CACHE) and obj.__module__.startswith("lltlattice")]


# -- the timed calls ----------------------------------------------------------


def run_lattice(job):
    return llt(_shape(job), job["n"], engine="lattice")


def run_tableaux(job):
    return llt(_shape(job), job["n"], engine="tableaux")


def run_cauchy(job):
    return getattr(identities, job["verifier"])(n=job["n"], k=job["k"], D=job["D"])


def run_cli(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(job["argv"])
    return code, out.getvalue()


# -- the untimed checks: each returns None or the reason the output is wrong ---


TABLEAU_RESULTS: dict[int, object] = {}   # job id -> the tableau engine's result


def check_lattice(job, poly):
    if job["id"] not in TABLEAU_RESULTS:
        TABLEAU_RESULTS[job["id"]] = llt(_shape(job), job["n"], engine="tableaux")
    if poly != TABLEAU_RESULTS[job["id"]]:
        return "lattice result differs from the tableau engine"
    return None


def _swapped(terms: dict, i: int) -> dict:
    out = {}
    for e, c in terms.items():
        e = list(e)
        e[i], e[i + 1] = e[i + 1], e[i]
        out[tuple(e)] = c
    return out


def check_tableaux(job, poly):
    n = job["n"]
    for i in range(n - 1):
        if _swapped(poly.terms, i) != poly.terms:
            return f"not symmetric under x{i + 1} <-> x{i + 2}"
    expected = ssyt_count(job["beta"], job["gamma"], n)
    if sum(poly.terms.values()) != expected:
        return f"coefficient sum {sum(poly.terms.values())} != {expected} tableaux"
    return None


def check_cauchy(job, report):
    if report.status != "PASS":
        return f"status {report.status}"
    if report.details.get("equalities_checked", 0) <= 0:
        return "no equalities checked"
    return None


SUMMARY = re.compile(r"^summary: (\d+)/(\d+) passed$", re.M)


def check_cli(job, result):
    code, text = result
    if code != 0:
        return f"exit code {code}"
    statuses = re.findall(r"^(PASS|FAIL) ", text, re.M)
    found = SUMMARY.findall(text)
    if len(found) != 1:
        return "no summary line"
    passed, total = map(int, found[0])
    if not (passed == total == len(statuses) > 0) or "FAIL" in statuses:
        return f"summary {passed}/{total} with {len(statuses)} report lines"
    return None


WORKLOADS = {
    "lattice-ladder": (run_lattice, check_lattice),
    "tableaux-ladder": (run_tableaux, check_tableaux),
    "cauchy-sweep": (run_cauchy, check_cauchy),
    "cli-verify": (run_cli, check_cli),
}


def main() -> int:
    spec = json.load(sys.stdin)
    run, check = WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    caches = library_caches()
    outputs = []
    for job in spec["jobs"]:
        for cached in caches:
            cached.cache_clear()
        span = tracer.begin_op(job["id"]) if tracer is not None else None
        start = time.perf_counter()
        try:
            result, error = run(job), None
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.end_op(span)
        outputs.append((elapsed, result, error))
    if tracer is not None:
        tracer.uninstall()
    ops = []
    for job, (elapsed, result, error) in zip(spec["jobs"], outputs):
        if error is None:
            try:
                error = check(job, result)
            except Exception as exc:  # a check that cannot run fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        ops.append({"id": job["id"], "s": elapsed, "error": error})
    json.dump(
        {
            "imported": IMPORTED,
            "ops": ops,
            "trace": tracer.summary() if tracer is not None else None,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
