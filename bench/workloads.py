"""Inputs for the four benchmark workloads, in an order set by the seed.

Everything here is owned by the benchmark and imports nothing from
``lltlattice``, so a library change cannot change the inputs.  A job is a
JSON-ready dict whose ``id`` names it across rounds; a *child* is the list
of jobs one fresh interpreter runs.

The two ladders are stratified by a work proxy computed here:

* lattice: the number of row transitions the untargeted row-to-row DP
  makes (colors move independently, so the count is a product over colors
  of one-color counts, which are cheap to enumerate);
* tableaux: the number of tableau tuples (Jacobi-Trudi, see
  ``ssyt_count``) times the number of cells.

For every (k, n) rung, a pool is drawn from a fixed stream and the shapes
at fixed quantiles of the proxy are kept, so the ladder spans light to
heavy shapes and no single heavy draw sets its total.  The seed sets the
orders of the jobs (a new one each pass), not the shapes: when each seed drew its own shapes at
the same proxy levels, the proxy missed the op time by up to 2x, and the
ten-seed spread of op_p50_ms and op_tail_ms followed the seed (the same
seeds read high in two separate sets) to 0.27-0.45, above its bound.
"""

from __future__ import annotations

import math
import random
from functools import cache
from itertools import product

# Every op is kept to tens of milliseconds, so that a run times each one
# some hundred times on each CPU (see ``bench/README.md``): the straight
# tuple 3,2;2,1;2,0 runs at n = 2 on the lattice and n = 3 on tableaux, and
# the ladders draw no shape whose work proxy is above the cap.
LATTICE_ANCHOR = ([[3, 2], [2, 1], [2, 0]], [[0, 0], [0, 0], [0, 0]], 2)
TABLEAUX_ANCHOR = ([[3, 2], [2, 1], [2, 0]], [[0, 0], [0, 0], [0, 0]], 3)

# Work levels per rung, as quantiles of the reference pool.  The lattice
# ladder spans its rungs evenly; the tableau ladder leans to the top, where
# the time is, because most small shapes have a handful of tableaux.
LATTICE_RUNGS = [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
LATTICE_LEVELS = [(2 * i + 1) / 16 for i in range(8)]
TABLEAUX_RUNGS = [(k, n) for k in (1, 2, 3) for n in (4, 5)]
TABLEAUX_LEVELS = [0.5, 0.75, 0.875, 0.94, 0.97]
LATTICE_MAX_WORK = 2_600      # row transitions: about 25 ms
TABLEAUX_MAX_WORK = 8_000     # tableaux x cells: about 20 ms

POOL = 400

CAUCHY_PARAMS = [(3, 2, 3), (2, 2, 4), (1, 3, 5)]
CAUCHY_VERIFIERS = ["verify_cauchy", "verify_cauchy_rot"]

# Small `lltlattice verify` commands: numeric and symbolic Yang-Baxter, the
# engine comparisons (`--engine both`), and the lattice-derived identities.
CLI_COMMANDS = [
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
]


# -- shapes -------------------------------------------------------------------


def _partition(rng: random.Random, rows: int, max_part: int) -> list[int]:
    return sorted((rng.randint(0, max_part) for _ in range(rows)), reverse=True)


def random_shape(rng: random.Random, k: int, max_rows: int = 3, max_part: int = 3):
    """A k-tuple of skew shapes beta/gamma, each with 1..max_rows declared rows."""
    beta, gamma = [], []
    for _ in range(k):
        b = _partition(rng, rng.randint(1, max_rows), max_part)
        gamma.append(sorted((rng.randint(0, v) for v in b), reverse=True))
        beta.append(b)
    return beta, gamma


def _labels(p) -> list[int]:
    """Lattice column of each declared part: p_m - m + 1."""
    return [v - m for m, v in enumerate(p)]


def lattice_work(beta, gamma, n: int) -> int:
    """Row transitions of the untargeted DP, summed over the n rows."""
    r = min(c for g in gamma for c in _labels(g))
    ncols = max(c for b in beta for c in _labels(b)) - r + 1
    per_row = [1] * n
    for g in gamma:
        states = {tuple(sorted(c - r for c in _labels(g)))}
        for row in range(n):
            nxt, moves = set(), 0
            for st in states:
                spans = [range(st[i], st[i + 1]) for i in range(len(st) - 1)]
                spans.append(range(st[-1], ncols))
                moves += math.prod(len(s) for s in spans)
                nxt.update(product(*spans))
            per_row[row] *= moves
            states = nxt
    return sum(per_row)


def _h(m: int, n: int) -> int:
    """Complete homogeneous h_m(1^n) = C(n+m-1, m)."""
    return math.comb(n + m - 1, m) if m >= 0 else 0


def _det(mat: list[list[int]]) -> int:
    """Exact determinant by cofactor expansion (matrices here are at most 3x3)."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j in range(len(mat))
        if mat[0][j]
    )


def ssyt_count(beta, gamma, n: int) -> int:
    """Number of tableau tuples with entries in [n]: the product over
    components of the Jacobi-Trudi determinant det h_{b_i - g_j - i + j}(1^n)."""
    total = 1
    for b, g in zip(beta, gamma):
        size = len(b)
        total *= _det([[_h(b[i] - g[j] - i + j, n) for j in range(size)] for i in range(size)])
    return total


def tableaux_work(beta, gamma, n: int) -> int:
    cells = sum(bv - gv for b, g in zip(beta, gamma) for bv, gv in zip(b, g))
    return ssyt_count(beta, gamma, n) * max(cells, 1)


def _draw(rng: random.Random, k: int, n: int, work, size: int, max_work: int):
    pool = []
    while len(pool) < size:
        beta, gamma = random_shape(rng, k)
        w = work(beta, gamma, n)
        if w <= max_work:
            pool.append((w, beta, gamma))
    return pool


def _ladder(rungs, levels, work, max_work) -> list[dict]:
    rng = random.Random("lltlattice-bench-reference")
    jobs = []
    for k, n in rungs:
        pool = sorted(_draw(rng, k, n, work, POOL, max_work), key=lambda c: c[0])
        for q in levels:
            w, beta, gamma = pool[int(q * POOL)]
            jobs.append({"beta": beta, "gamma": gamma, "n": n, "work": w})
    return jobs


def _anchor(spec) -> dict:
    beta, gamma, n = spec
    return {"beta": beta, "gamma": gamma, "n": n}


def _numbered(jobs: list[dict]) -> list[dict]:
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


@cache
def _lattice_jobs() -> list[dict]:
    jobs = _ladder(LATTICE_RUNGS, LATTICE_LEVELS, lattice_work, LATTICE_MAX_WORK)
    return _numbered(jobs + [_anchor(LATTICE_ANCHOR)])


@cache
def _tableaux_jobs() -> list[dict]:
    jobs = _ladder(TABLEAUX_RUNGS, TABLEAUX_LEVELS, tableaux_work, TABLEAUX_MAX_WORK)
    return _numbered(jobs + [_anchor(TABLEAUX_ANCHOR)])


# -- workloads ------------------------------------------------------------------
#
# Each function gives the jobs of one pass, in an order drawn from the run's
# seeded stream, so every pass runs them in a new order.  A child runs
# PASSES of them back to back and empties the library's caches before each
# job, so no job's time depends on the jobs that ran before it.


def _shuffled(jobs: list, rng: random.Random) -> list:
    jobs = list(jobs)
    rng.shuffle(jobs)
    return jobs


def lattice_ladder(rng: random.Random) -> list[dict]:
    """The stratified ladder plus the straight anchor."""
    return _shuffled(_lattice_jobs(), rng)


def tableaux_ladder(rng: random.Random) -> list[dict]:
    """The stratified n = 4..5 ladder plus the straight anchor."""
    return _shuffled(_tableaux_jobs(), rng)


CAUCHY_JOBS = _numbered([{"verifier": name, "n": n, "k": k, "D": D}
                         for name in CAUCHY_VERIFIERS for n, k, D in CAUCHY_PARAMS])
CLI_JOBS = _numbered([{"argv": command.split()} for command in CLI_COMMANDS])


def cauchy_sweep(rng: random.Random) -> list[dict]:
    return _shuffled(CAUCHY_JOBS, rng)


def cli_verify(rng: random.Random) -> list[dict]:
    return _shuffled(CLI_JOBS, rng)


WORKLOADS = {
    "lattice-ladder": lattice_ladder,
    "tableaux-ladder": tableaux_ladder,
    "cauchy-sweep": cauchy_sweep,
    "cli-verify": cli_verify,
}

# Passes per child: about 2.5 s of work on a contended CPU (more for the
# workloads whose pass is shorter).
PASSES = {
    "lattice-ladder": 7,
    "tableaux-ladder": 10,
    "cauchy-sweep": 10,
    "cli-verify": 12,
}

# Seconds budgeted per round (one child on each CPU, start-up and checks
# included), above the slowest round seen at the seed commit on a shared
# 2-core Xeon VM.  A run makes floor(--seconds / ROUND_S) rounds, a count
# that does not change when the code gets faster or slower.
ROUND_S = 3.0
