"""Tuples of semistandard Young tableaux and their generating functions.

A tableau tuple stores, for each component of a skew tuple, the entries of
each declared row left to right (empty rows give empty tuples).  Rows weakly
increase, columns strictly increase bottom to top, entries lie in [n].

The coinversion statistic counts triples with entries a <= b <= c; the
inversion statistic counts attacking inversions.  Their sum over one shape is
the shape's total triple count, independent of the filling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import LaurentPoly, VarSet
from .shapes import (
    Partition,
    ShapeTuple,
    SkewShapeTuple,
    check_fits_box,
    check_partition,
    check_shape_tuple,
    complement,
    triples,
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

    def reading_sequence(self) -> tuple[int, ...]:
        """Entries in reading order: by adjusted content, then SW to NE."""
        k = self.shape.k
        cells = []
        for i in range(k):
            for (row, col) in self.shape.cells(i):
                cells.append(((col - row) * k + i, row, i, col))
        cells.sort()
        return tuple(self.entry(i, row, col) for (_, row, i, col) in cells)


def _component_fillings(beta: Partition, gamma: Partition, n: int):
    """All SSYT fillings of one skew component, rows bottom to top."""
    nrows = len(beta)
    results: list[tuple[tuple[int, ...], ...]] = []
    rows: list[tuple[int, ...]] = []

    def fill_row(r: int):
        if r == nrows:
            results.append(tuple(rows))
            return
        lo, hi = gamma[r], beta[r]
        width = hi - lo
        if width == 0:
            rows.append(())
            fill_row(r + 1)
            rows.pop()
            return
        below = rows[r - 1] if r > 0 else None
        row: list[int] = []

        def fill_cell(c: int):
            if c == width:
                rows.append(tuple(row))
                fill_row(r + 1)
                rows.pop()
                return
            col = lo + c + 1
            start = row[-1] if row else 1
            if below is not None and gamma[r - 1] < col <= beta[r - 1]:
                start = max(start, below[col - gamma[r - 1] - 1] + 1)
            for v in range(start, n + 1):
                row.append(v)
                fill_cell(c + 1)
                row.pop()

        fill_cell(0)

    fill_row(0)
    return results


def enumerate_ssyt(shape: SkewShapeTuple, n: int) -> list[TableauTuple]:
    """Every tableau tuple exactly once, sorted by reading-order sequence."""
    if n < 1:
        raise ValueError("n must be at least 1")
    per_comp = [
        _component_fillings(shape.beta[i], shape.gamma[i], n) for i in range(shape.k)
    ]
    out = [TableauTuple(shape, combo) for combo in product(*per_comp)]
    out.sort(key=TableauTuple.reading_sequence)
    return out


def _triple_entries(T: TableauTuple, tr):
    a = T.entry(tr.b, tr.row, tr.q) if tr.u_inside else 0
    c = T.entry(tr.b, tr.row, tr.q + 1) if tr.w_inside else INF
    b = T.entry(tr.a, tr.v_row, tr.v_col)
    return a, b, c


def coinv(T: TableauTuple) -> int:
    """Number of coinversion triples (a <= b <= c)."""
    total = 0
    for tr in triples(T.shape):
        a, b, c = _triple_entries(T, tr)
        if a <= b <= c:
            total += 1
    return total


def inv_triples(T: TableauTuple) -> int:
    """Number of inversion triples (b < a <= c or a <= c < b)."""
    total = 0
    for tr in triples(T.shape):
        a, b, c = _triple_entries(T, tr)
        if b < a <= c or a <= c < b:
            total += 1
    return total


def attacking_inversions(T: TableauTuple) -> int:
    """Attacking pairs whose larger entry comes first in reading order."""
    k = T.shape.k
    cells = []
    for i in range(k):
        for (row, col) in T.shape.cells(i):
            adj = (col - row) * k + i
            cells.append((adj, row, T.entry(i, row, col)))
    cells.sort(key=lambda t: (t[0], t[1]))
    total = 0
    for idx, (adj1, _, e1) in enumerate(cells):
        for adj2, _, e2 in cells[idx + 1:]:
            if adj2 - adj1 >= k:
                break
            if e1 > e2:
                total += 1
    return total


def inv(T: TableauTuple) -> int:
    return attacking_inversions(T)


def _generating_function(shape: SkewShapeTuple, n: int, stat) -> LaurentPoly:
    vars = VarSet(nx=n)
    acc: dict[tuple, int] = {}
    for T in enumerate_ssyt(shape, n):
        e = tuple(T.weight_exponents(n)) + (stat(T),)
        acc[e] = acc.get(e, 0) + 1
    return LaurentPoly(vars, acc)


def llt_coinv(shape: SkewShapeTuple, n: int) -> LaurentPoly:
    """Coinversion LLT polynomial: sum of t^coinv(T) x^T."""
    return _generating_function(shape, n, coinv)


def llt_inv(shape: SkewShapeTuple, n: int) -> LaurentPoly:
    """Inversion LLT polynomial: sum of t^inv(T) x^T."""
    return _generating_function(shape, n, inv)


# -- transformed Hall-Littlewood polynomials ----------------------------------


def _weakly_decreasing_columns(height: int, n: int):
    """All sequences of given height with entries in [n], decreasing upward."""
    if height == 0:
        return [()]
    cols = []

    def rec(prefix):
        if len(prefix) == height:
            cols.append(tuple(prefix))
            return
        hi = prefix[-1] if prefix else n
        for v in range(1, hi + 1):
            prefix.append(v)
            rec(prefix)
            prefix.pop()

    rec([])
    return cols


def hl_transformed(mu: Partition, n: int) -> LaurentPoly:
    """Transformed Hall-Littlewood polynomial H_mu(x_1..x_n; t).

    Sums over fillings of the conjugate diagram with columns weakly
    decreasing bottom to top.  A triple is a pair of columns C < C'' and a
    height l with sigma(l,C) <= sigma(l,C'') <= sigma(l-1,C), the last
    entry read as +infinity at l = 1.
    """
    mu = check_partition(mu)
    heights = [v for v in mu if v > 0]          # column C of the conjugate has height mu_C
    ncols = len(heights)
    vars = VarSet(nx=n)
    acc: dict[tuple, int] = {}
    for cols in product(*[_weakly_decreasing_columns(h, n) for h in heights]):
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
    from .shapes import n_stat

    H = hl_transformed(mu, n)
    shift = LaurentPoly.t(H.vars, n_stat(mu))
    return shift * H.invert_t()


# -- the column-complement bijection ------------------------------------------


def _complement_one(rows: tuple[tuple[int, ...], ...], lam: Partition, n: int, N: int):
    """Column-complement a single straight tableau inside an N x n box."""
    new_cols = []
    for c in range(N, 0, -1):
        col_entries = {rows[r][c - 1] for r in range(n) if lam[r] >= c}
        new_cols.append(sorted(set(range(1, n + 1)) - col_entries))
    new_lam = tuple(N - lam[n - j] for j in range(1, n + 1))
    new_rows = tuple(
        tuple(new_cols[c][r] for c in range(new_lam[r]) if len(new_cols[c]) > r)
        for r in range(n)
    )
    return new_rows, new_lam


def complement_bijection(T: TableauTuple, M: int) -> TableauTuple:
    """Column-complement each tableau in an (M-n) x n box, reverse the tuple."""
    shape = T.shape
    if not shape.is_straight():
        raise ValueError("complement bijection needs a straight shape tuple")
    lam = shape.beta
    n = len(lam[0])
    if any(len(p) != n for p in lam):
        raise ValueError("all components must have the same number of parts")
    check_fits_box(lam, M, n)
    N = M - n
    pieces = [_complement_one(T.rows[i], lam[i], n, N) for i in range(shape.k)]
    pieces.reverse()
    new_shape = SkewShapeTuple.straight(complement(lam, M, n))
    return TableauTuple(new_shape, tuple(rows for rows, _ in pieces))


def schur(lam: Partition, n: int) -> LaurentPoly:
    """Schur polynomial of one straight shape (one-component LLT at any t)."""
    return llt_coinv(SkewShapeTuple.straight((check_partition(lam),)), n)


def llt(shape: SkewShapeTuple | ShapeTuple, n: int, engine: str = "tableaux") -> LaurentPoly:
    """Coinversion LLT polynomial by the chosen engine.

    engine: "tableaux", "lattice", or "both" (computes both and insists they
    agree before returning).
    """
    if not isinstance(shape, SkewShapeTuple):
        shape = SkewShapeTuple.straight(check_shape_tuple(shape))
    if n < 1:
        raise ValueError("n must be at least 1")
    if engine == "tableaux":
        return llt_coinv(shape, n)
    from .lattice import build_lattice, partition_function

    if engine == "lattice":
        return partition_function(build_lattice(shape, n))
    if engine == "both":
        a = llt_coinv(shape, n)
        b = partition_function(build_lattice(shape, n))
        if a != b:
            raise EngineMismatch(shape, n, a, b)
        return a
    raise ValueError(f"unknown engine {engine!r}")


class EngineMismatch(AssertionError):
    def __init__(self, shape, n, tableaux_value, lattice_value):
        self.shape = shape
        self.n = n
        self.tableaux_value = tableaux_value
        self.lattice_value = lattice_value
        super().__init__(
            f"engines disagree on {shape.text()} with n={n}: "
            f"tableaux={tableaux_value.to_text()} lattice={lattice_value.to_text()}"
        )
