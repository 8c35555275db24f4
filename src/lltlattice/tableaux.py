"""Tuples of semistandard Young tableaux and their generating functions.

A tableau tuple stores, for each component of a skew tuple, the entries of
each declared row left to right (empty rows give empty tuples).  Rows weakly
increase, columns strictly increase bottom to top, entries lie in [n].

The coinversion statistic counts triples with entries a <= b <= c; the
inversion statistic counts attacking inversions.  Their sum over one shape is
the shape's total triple count, independent of the filling.

``llt_coinv`` builds no tableau tuple and sorts nothing: it takes each
component's fillings once, reads each pair of components' triples from
``shapes._pair_triples`` (the package's one enumeration of triples),
tabulates their coinversions over pairs of fillings, and counts packed
monomials while it folds the components (a shape with only a handful of
tuples counts each tuple's triples directly instead).  ``_coinv_counts``
resolves a shape into those lists and ``_count_fillings`` counts them, the
one core that ``_ComponentTable`` also calls for many tuples over shared
components; a table lives for one call, as every memo of the package does.
``enumerate_ssyt`` and ``llt_inv`` work tableau by tableau; ``llt_inv`` is
the independent route that the inv/coinv relation is checked against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from itertools import accumulate, chain, combinations, combinations_with_replacement, product, repeat
from operator import add, gt, itemgetter, sub

from .algebra import LaurentPoly, VarSet, _Packing
from .shapes import (
    Partition,
    SkewShapeTuple,
    _Lazy,
    _box_width,
    _complement,
    _d_pair,
    _pair_positions,
    _pair_triples,
    _rotated_component,
    check_box_tuple,
    check_n,
    check_partition,
    n_stat,
)

INF = float("inf")


@dataclass(frozen=True)
class TableauTuple:
    shape: SkewShapeTuple
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    def entry(self, i: int, row: int, col: int) -> int:
        """Entry of component i (0-based) at cell (row, col), both 1-based."""
        return self.rows[i][row - 1][col - self.shape.gamma[i][row - 1] - 1]

    def weight_exponents(self, n: int) -> list[int]:
        out = [0] * n
        for comp in self.rows:
            for row in comp:
                for e in row:
                    out[e - 1] += 1
        return out


def _component_fillings(beta: Partition, gamma: Partition, n: int) -> list[tuple[int, ...]]:
    """All SSYT fillings of one skew component, each a flat tuple of entries
    in ``SkewShapeTuple.cells`` order (rows bottom to top, left to right).

    Built row by row: each weakly increasing row goes on top of the
    fillings whose top row it exceeds strictly, column by column.
    """
    fillings: list[tuple[int, ...]] = [()]
    end = below_lo = below_hi = 0     # end: flat position after the row below
    for lo, hi in zip(gamma, beta):
        rows = list(combinations_with_replacement(range(1, n + 1), hi - lo))
        start, stop = max(lo, below_lo), min(hi, below_hi)   # shared columns
        if start >= stop:
            fillings = [f + row for f in fillings for row in rows]
        else:
            fits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            out = []
            for f in fillings:
                under = f[end - below_hi + start:end - below_hi + stop]
                if under not in fits:
                    fits[under] = [
                        row for row in rows if all(map(gt, row[start - lo:stop - lo], under))
                    ]
                out += map(f.__add__, fits[under])
            fillings = out
        end, below_lo, below_hi = end + hi - lo, lo, hi
    return fillings


def enumerate_ssyt(shape: SkewShapeTuple, n: int) -> list[TableauTuple]:
    """Every tableau tuple exactly once, in product order of the components."""
    check_n(n)
    per_comp = []
    for beta, gamma in zip(shape.beta, shape.gamma):
        ends = list(accumulate(map(sub, beta, gamma), initial=0))
        per_comp.append([
            tuple(map(f.__getitem__, map(slice, ends, ends[1:])))
            for f in _component_fillings(beta, gamma, n)
        ])
    return [TableauTuple(shape, combo) for combo in product(*per_comp)]


def attacking_inversions(T: TableauTuple) -> int:
    """Attacking pairs whose larger entry comes first in reading order: by
    adjusted content (col - row) k + component, then SW to NE."""
    k = T.shape.k
    cells = sorted(
        ((col - row) * k + i, row, T.entry(i, row, col))
        for i in range(k) for (row, col) in T.shape.cells(i)
    )
    total = 0
    for idx, (adj1, _, e1) in enumerate(cells):
        for adj2, _, e2 in cells[idx + 1:]:
            if adj2 - adj1 >= k:
                break
            if e1 > e2:
                total += 1
    return total


def _coinv_table(fa, fb, trips, n: int, unit: int) -> list[list[int]]:
    """``unit`` times C_ab: row i, column j counts the triples of the pair
    (a, b) that are coinversions when a holds fa[i] and b holds fb[j].

    ``cols[pos_v][v][j]`` is unit times the number of triples at pos_v whose
    interval [u, w] (sentinels 1 and n) holds v when b holds fb[j]; a row of
    the table sums one such column per pos_v.  Each distinct tuple of entries
    at the v cells gets one row (with one v cell, the entry itself indexes
    the column), shared by every filling of a that holds it.
    """
    cols: dict[int, list[list[int]]] = {}
    for pos_v, pos_u, pos_w in trips:
        if pos_v not in cols:
            cols[pos_v] = [[0] * len(fb) for _ in range(n + 1)]
        col = cols[pos_v]
        for j, f in enumerate(fb):
            lo = f[pos_u] if pos_u >= 0 else 1
            hi = f[pos_w] if pos_w >= 0 else n
            for v in range(lo, hi + 1):
                col[v][j] += unit
    positions, columns = list(cols), list(cols.values())
    at_v = list(map(itemgetter(*positions), fa))
    rows = columns[0] if len(columns) == 1 else {
        entries: list(map(sum, zip(*map(list.__getitem__, columns, entries))))
        for entries in set(at_v)
    }
    return list(map(rows.__getitem__, at_v))


def _fold(b: int, key: int, later: list[list[int]], tables: dict):
    """Yield the keys of every completion of a choice for components < b,
    one iterable per choice for all components but the last.

    ``later[c - b][j]`` is what filling j of component c adds to ``key``:
    its weight plus its table entries against the fillings already chosen.
    The last two components are one level: a ``map`` per filling of the
    next-to-last adds its key and its table row to the last one's steps.
    A leading level with one filling is stepped through in place, so the
    recursion is one level deep per component with two or more fillings.
    """
    while len(later) > 2 and len(later[0]) == 1:
        rows = [tables.get((b, c)) for c in range(b + 1, b + len(later))]
        b, key, later = b + 1, key + later[0][0], [
            keys if row is None else list(map(add, keys, row[0]))
            for keys, row in zip(later[1:], rows)
        ]
    if len(later) == 1:
        yield map(key.__add__, later[0])
        return
    if len(later) == 2:
        last, row = later[1], tables.get((b, b + 1))
        for j, key_j in enumerate(map(key.__add__, later[0])):
            yield map(key_j.__add__, last if row is None else map(add, last, row[j]))
        return
    rows = [tables.get((b, c)) for c in range(b + 1, b + len(later))]
    for j, step in enumerate(later[0]):
        yield from _fold(b + 1, key + step, [
            keys if row is None else list(map(add, keys, row[j]))
            for keys, row in zip(later[1:], rows)
        ], tables)


# Up to this many tableau tuples, counting each tuple's triples directly
# costs less than building the pairwise tables (one-tuple shapes make up most
# of the Cauchy drivers' calls).
_FEW_TUPLES = 8


def _count_directly(fillings, pairs, weights, unit: int, n: int) -> dict:
    """Packed keys of every tableau tuple, its coinversions counted one by one."""
    counts: dict[int, int] = {}
    for fs, ws in zip(product(*fillings), product(*weights)):
        key = sum(ws)
        for a, b, trips in pairs:
            fa, fb = fs[a], fs[b]
            for v, u, w in trips:
                if (fb[u] if u >= 0 else 1) <= fa[v] <= (fb[w] if w >= 0 else n):
                    key += unit
        counts[key] = counts.get(key, 0) + 1
    return counts


def _count_by_tables(fillings, pairs, weights, unit: int, n: int) -> Counter:
    """Packed keys of every tableau tuple, from the pairwise tables C_ab."""
    # fold the components with the most fillings innermost, where the
    # counting runs over whole lists at C speed
    order = sorted(range(len(fillings)), key=lambda i: len(fillings[i]))
    at = {c: pos for pos, c in enumerate(order)}
    tables = {}
    for a, b, trips in pairs:
        table = _coinv_table(fillings[a], fillings[b], trips, n, unit)
        if at[a] > at[b]:
            a, b, table = b, a, [list(col) for col in zip(*table)]
        tables[at[a], at[b]] = table
    return Counter(chain.from_iterable(_fold(0, 0, [weights[c] for c in order], tables)))


def _filling_weights(fillings, n: int, width: int) -> list[int]:
    """The packed x-weight of each filling, x_i in the field worth 2^((i - 1) width)."""
    power = [0, *(1 << i * width for i in range(n))]
    return list(map(sum, map(map, repeat(power.__getitem__), fillings)))


def _count_fillings(fillings, pairs, weights, unit: int, n: int) -> dict:
    """Keys of t^coinv(T) x^T, one per tableau tuple T, counted: T takes one
    of ``fillings[c]`` for each component c, ``weights[c]`` are their packed
    x-weights, ``pairs`` are the tuple's (a, b, triple positions) and t is
    worth ``unit``.  The one counting core of ``_coinv_counts`` and of
    ``_ComponentTable``.

    A tableau tuple is one filling per component, and every triple couples
    a cell of an earlier component a with cells of a later component b, so
    coinv(T) is a sum of C_ab[f_a][f_b] over pairs a < b.  The fold over the
    components adds each filling's weight and its table entries to the
    running key, and counts the keys of full tuples.  A shape with at most
    ``_FEW_TUPLES`` tuples skips the tables and counts each tuple directly.
    """
    if not all(fillings):
        return {}
    few = prod(map(len, fillings)) <= _FEW_TUPLES
    return (_count_directly if few else _count_by_tables)(fillings, pairs, weights, unit, n)


def _coinv_counts(shape: SkewShapeTuple, packing: _Packing) -> dict:
    """Keys of ``packing`` for t^coinv(T) x^T, one per tableau tuple T with
    entries in [n], n = ``packing.vars.nx``, counted: x_i sits in the i-th
    field of ``packing`` and t in its top field.  Resolves the shape's
    components and pairs, and counts them with ``_count_fillings``."""
    n, width = packing.vars.nx, packing.shifts.step
    fillings = [_component_fillings(b, g, n) for b, g in zip(shape.beta, shape.gamma)]
    return _count_fillings(fillings, _pair_triples(shape),
                           [_filling_weights(f, n, width) for f in fillings], 1 << packing.top, n)


class _ComponentTable:
    """Counts of many tuples of shared components in one packing, such as
    one Cauchy driver call's, kept for that call and no longer.
    Each distinct beta/gamma gets an int id once (``ids[beta, gamma]``),
    with its fillings and packed weights (built when first counted), and
    each ordered pair of ids its triples once, so a tuple of ids goes
    straight to ``_count_fillings``.  ``comps[id]`` is a component's
    (beta, gamma); ``straight[p]`` is the id of p/0, ``boxed[c, w]`` of
    component c rotated in a box w wide, ``skewed[c, m]`` of the beta of c
    over the beta of m, and ``d_pairs`` memoizes ``shapes._d_pair``."""

    def __init__(self, packing: _Packing):
        n, width = packing.vars.nx, packing.shifts.step
        self.packing, self.n = packing, n
        # the makers close over locals, not self: no cycle keeps a table alive
        comps = self.comps = []
        ids = self.ids = _Lazy(lambda comp: comps.append(comp) or len(comps) - 1)
        fillings = self.fillings = _Lazy(lambda c: _component_fillings(*comps[c], n))
        self.weights = _Lazy(lambda c: _filling_weights(fillings[c], n, width))
        zero = (0,) * n
        self.straight = _Lazy(lambda p: ids[p, zero])
        self.boxed = _Lazy(lambda cw: ids[_rotated_component(*comps[cw[0]], cw[1])])
        self.skewed = _Lazy(lambda cm: ids[comps[cm[0]][0], comps[cm[1]][0]])
        self.pairs = _Lazy(lambda ab: _pair_positions(*comps[ab[0]], *comps[ab[1]]))
        self.positions = _Lazy(lambda k: list(combinations(range(k), 2)))   # each a < b of k
        self.d_pairs = _Lazy(_d_pair)   # (lam_a, lam_b) -> _d_pair of it

    def counts(self, ids: tuple) -> dict:
        """``_coinv_counts`` of the tuple of components ``ids``."""
        pairs = [(a, b, trips) for a, b in self.positions[len(ids)]
                 if (trips := self.pairs[ids[a], ids[b]])]
        return _count_fillings(list(map(self.fillings.__getitem__, ids)), pairs,
                               list(map(self.weights.__getitem__, ids)), 1 << self.packing.top,
                               self.n)

    def skew(self, ids: tuple, mu_ids: tuple) -> tuple:
        """The ids of lam/mu from those of lam/0 and mu/0."""
        return tuple(map(self.skewed.__getitem__, zip(ids, mu_ids)))

    def rotation(self, lam, ids: tuple) -> tuple:
        """The ids of ``shapes.rotate(lam)`` from those of lam/0."""
        w = _box_width(lam)
        return tuple(self.boxed[c, w] for c in reversed(ids))


def llt_coinv(shape: SkewShapeTuple, n: int) -> LaurentPoly:
    """Coinversion LLT polynomial: sum of t^coinv(T) x^T, counted by
    ``_coinv_counts`` with x_1..x_n in bounded fields and t above them."""
    check_n(n)
    packing = _Packing(VarSet(nx=n), shape.cell_count())   # an x-exponent is at most cells
    return packing.poly(_coinv_counts(shape, packing))


def llt_inv(shape: SkewShapeTuple, n: int) -> LaurentPoly:
    """Inversion LLT polynomial: sum of t^inv(T) x^T, tableau by tableau."""
    tableaux = enumerate_ssyt(shape, n)   # checks n before the VarSet is built
    return LaurentPoly(VarSet(nx=n), Counter((*T.weight_exponents(n), attacking_inversions(T))
                                             for T in tableaux))


# -- transformed Hall-Littlewood polynomials ----------------------------------


def hl_transformed(mu: Partition, n: int) -> LaurentPoly:
    """Transformed Hall-Littlewood polynomial H_mu(x_1..x_n; t).

    Sums over fillings of the conjugate diagram with columns weakly
    decreasing bottom to top.  A triple is a pair of columns C < C'' and a
    height l with sigma(l,C) <= sigma(l,C'') <= sigma(l-1,C), the last
    entry read as +infinity at l = 1.
    """
    mu = check_partition(mu)
    check_n(n)
    heights = [v for v in mu if v > 0]          # column C of the conjugate has height mu_C
    ncols = len(heights)
    vars = VarSet(nx=n)
    acc: dict[tuple, int] = {}
    # a column's entries in [n], weakly decreasing upward
    columns = [combinations_with_replacement(range(n, 0, -1), h) for h in heights]
    for cols in product(*columns):
        stat = 0
        for c1 in range(ncols):
            for c2 in range(c1 + 1, ncols):
                for ell in range(1, heights[c2] + 1):
                    x = cols[c1][ell - 1]
                    z = cols[c2][ell - 1]
                    y = cols[c1][ell - 2] if ell >= 2 else INF
                    if x <= z <= y:
                        stat += 1
        exps = [0] * n
        for col in cols:
            for e in col:
                exps[e - 1] += 1
        key = tuple(exps) + (stat,)
        acc[key] = acc.get(key, 0) + 1
    return LaurentPoly(vars, acc)


def hl_modified(mu: Partition, n: int) -> LaurentPoly:
    """Modified Hall-Littlewood polynomial t^{n(mu)} H_mu(X; 1/t)."""
    return hl_transformed(mu, n).invert_t().shifted((0,) * n + (n_stat(mu),))


# -- the column-complement bijection ------------------------------------------


def _complement_one(rows: tuple[tuple[int, ...], ...], lam: Partition, new_lam: Partition,
                    N: int) -> tuple[tuple[int, ...], ...]:
    """Column-complement a single straight tableau inside an N x n box; its
    shape lam becomes new_lam."""
    n = len(lam)
    new_cols = []
    for c in range(N, 0, -1):
        col_entries = {rows[r][c - 1] for r in range(n) if lam[r] >= c}
        new_cols.append(sorted(set(range(1, n + 1)) - col_entries))
    return tuple(
        tuple(new_cols[c][r] for c in range(new_lam[r]) if len(new_cols[c]) > r)
        for r in range(n)
    )


def complement_bijection(T: TableauTuple, M: int) -> TableauTuple:
    """Column-complement each tableau in an (M-n) x n box, reverse the tuple."""
    shape = T.shape
    if not shape.is_straight():
        raise ValueError("complement bijection needs a straight shape tuple")
    lam = check_box_tuple(shape.beta, M=M)
    N = M - len(lam[0])
    comp = _complement(lam, N)
    rows = tuple(_complement_one(old, p, new, N)
                 for old, p, new in zip(reversed(T.rows), reversed(lam), comp))
    return TableauTuple(SkewShapeTuple.straight(comp), rows)


def schur(lam: Partition, n: int) -> LaurentPoly:
    """Schur polynomial of one straight shape (one-component LLT at any t)."""
    return llt_coinv(SkewShapeTuple.straight((check_partition(lam),)), n)
