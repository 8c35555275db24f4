"""Partitions, tuples of skew shapes, and their combinatorial statistics.

Partitions are tuples of weakly decreasing nonnegative ints with a fixed
declared number of parts; trailing zeros are significant.  A k-tuple of skew
shapes is a pair of such tuples (beta, gamma) with componentwise containment.
Cells use French convention: row 1 at the bottom, cell (row, col) has content
col - row, and columns strictly increase going up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import ge
from typing import NamedTuple

Partition = tuple[int, ...]
ShapeTuple = tuple[Partition, ...]


def check_partition(parts) -> Partition:
    p = tuple(map(int, parts))
    if p and min(p) < 0:
        raise ValueError(f"negative part in {p}")
    if not all(map(ge, p, p[1:])):
        raise ValueError(f"parts not weakly decreasing: {p}")
    return p


def check_shape_tuple(shapes) -> ShapeTuple:
    tup = tuple(map(check_partition, shapes))
    if not tup:
        raise ValueError("shape tuple must have at least one component")
    return tup


@dataclass(frozen=True)
class SkewShapeTuple:
    """k-tuple of skew shapes beta/gamma with matching declared lengths."""

    beta: ShapeTuple
    gamma: ShapeTuple

    def __post_init__(self):
        beta = check_shape_tuple(self.beta)
        gamma = check_shape_tuple(self.gamma)
        if len(beta) != len(gamma):
            raise ValueError("beta and gamma must have the same number of components")
        for b, g in zip(beta, gamma):
            if len(b) != len(g):
                raise ValueError(f"{b} and {g} must have the same number of parts")
            if any(gv > bv for bv, gv in zip(b, g)):
                raise ValueError(f"containment fails: {g} is not inside {b}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def _trusted(cls, beta: ShapeTuple, gamma: ShapeTuple) -> "SkewShapeTuple":
        """A tuple whose checks already hold: beta and gamma are tuples of
        partitions with matching lengths and containment (a shape the
        caller generated or derived from a checked one)."""
        shape = object.__new__(cls)
        object.__setattr__(shape, "beta", beta)
        object.__setattr__(shape, "gamma", gamma)
        return shape

    @classmethod
    def straight(cls, beta) -> "SkewShapeTuple":
        """beta/0 for a tuple of partitions; a SkewShapeTuple is returned as is."""
        if isinstance(beta, cls):
            return beta
        beta = tuple(map(tuple, beta))
        return cls(beta, tuple((0,) * len(b) for b in beta))

    @property
    def k(self) -> int:
        return len(self.beta)

    def is_straight(self) -> bool:
        return all(all(v == 0 for v in g) for g in self.gamma)

    def cell_count(self) -> int:
        return sum(sum(b) - sum(g) for b, g in zip(self.beta, self.gamma))

    def cells(self, i: int):
        """Cells (row, col) of component i (0-based i), bottom row first."""
        b, g = self.beta[i], self.gamma[i]
        for row in range(1, len(b) + 1):
            for col in range(g[row - 1] + 1, b[row - 1] + 1):
                yield (row, col)

    def text(self) -> str:
        beta = ";".join(",".join(str(v) for v in p) for p in self.beta)
        gamma = ";".join(",".join(str(v) for v in p) for p in self.gamma)
        return f"{beta}/{gamma}"


def parse_shape_text(text: str, flag: str) -> ShapeTuple:
    """Parse "3,3;3,1", the value of ``flag``, into ((3,3),(3,1))."""
    try:
        parts = tuple(tuple(map(int, c.split(","))) for c in text.split(";"))
    except ValueError:
        raise ValueError(f"{flag} parts must be integers, not {text!r}") from None
    try:
        return check_shape_tuple(parts)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


# -- boundary data for the lattice ------------------------------------------


def label_columns(p: Partition) -> tuple[int, ...]:
    """Columns p_m - m + 1 over all declared parts; strictly decreasing."""
    return tuple(p[m - 1] - m + 1 for m in range(1, len(p) + 1))


def column_range(shape: SkewShapeTuple) -> tuple[int, int]:
    """(r, s): leftmost gamma label and rightmost beta label."""
    if not any(shape.gamma):
        return (0, 0)
    # labels strictly decrease along a partition: its last is its least
    return (min(g[-1] - len(g) + 1 for g in shape.gamma if g),
            max(b[0] for b in shape.beta if b))


def bandwidth(shape: SkewShapeTuple) -> int:
    r, s = column_range(shape)
    return s - r


# -- triples ------------------------------------------------------------------


class Triple(NamedTuple):
    """One triple of a skew tuple.

    The cells u, w sit in row ``row`` of component ``b`` at columns ``q`` and
    ``q+1``; v is the cell of the earlier component ``a`` on the content line
    of w.  ``u_inside``/``w_inside`` say whether u/w carry entries; otherwise
    their entry roles are the sentinels 0 and infinity.
    """

    a: int
    v_row: int
    v_col: int
    b: int
    row: int
    q: int
    u_inside: bool
    w_inside: bool


@lru_cache(maxsize=1024)
def triples(shape: SkewShapeTuple) -> tuple[Triple, ...]:
    """All triples, enumerated directly from the definition.

    For components a < b, each row of b contributes the adjacent pairs
    (u, w) = ((row, q), (row, q+1)) for q from gamma_row to beta_row; u is
    outside the shape at q = gamma_row (column 0 included when gamma_row = 0)
    and w is outside at q = beta_row.  Every cell v of component a on the
    content line of w completes a triple.
    """
    k = shape.k
    by_content: list[dict[int, list[tuple[int, int]]]] = []
    for i in range(k):
        d: dict[int, list[tuple[int, int]]] = {}
        for (row, col) in shape.cells(i):
            d.setdefault(col - row, []).append((row, col))
        by_content.append(d)

    out = []
    for b in range(k):
        betab, gammab = shape.beta[b], shape.gamma[b]
        for row in range(1, len(betab) + 1):
            lo, hi = gammab[row - 1], betab[row - 1]
            for q in range(lo, hi + 1):
                w_content = q + 1 - row
                for a in range(b):
                    for (vr, vc) in by_content[a].get(w_content, ()):
                        out.append(
                            Triple(
                                a=a,
                                v_row=vr,
                                v_col=vc,
                                b=b,
                                row=row,
                                q=q,
                                u_inside=q > lo,
                                w_inside=q + 1 <= hi,
                            )
                        )
    return tuple(out)


def m_bruteforce(shape: SkewShapeTuple) -> int:
    """Total number of triples, by direct enumeration."""
    return len(triples(shape))


def m_formula(beta: ShapeTuple) -> int:
    """Closed form for the triple count of a tuple of partitions."""
    beta = check_shape_tuple(beta)
    k = len(beta)
    total = 0
    for a in range(k):
        for b in range(a + 1, k):
            for i in range(1, len(beta[a]) + 1):
                for j in range(1, len(beta[b]) + 1):
                    bi, bj = beta[a][i - 1], beta[b][j - 1]
                    if 0 <= bj - j + i < bi:
                        total += 1
                    total += max(min(bi - i, bj - j) + min(i, j), 0)
    return total


def n_stat(mu: Partition) -> int:
    """n(mu) = sum (i-1) mu_i."""
    return sum((i - 1) * v for i, v in enumerate(check_partition(mu), start=1))


def inv_stat(beta) -> int:
    """Number of pairs i < j with beta_i > beta_j."""
    beta = tuple(beta)
    return sum(1 for i, j in combinations(range(len(beta)), 2) if beta[i] > beta[j])


# -- dualities ----------------------------------------------------------------


def check_box_tuple(lam, n: int | None = None, M: int | None = None) -> ShapeTuple:
    """A k-tuple of partitions with n parts each (default: as many as the first),
    inside the (M - n)^n box when M is given."""
    lam = check_shape_tuple(lam)
    n = len(lam[0]) if n is None else n
    for p in lam:
        if len(p) != n:
            raise ValueError(f"{p} must have exactly {n} parts")
    for p in lam:
        if M is not None and p and p[0] > M - n:
            raise ValueError(f"part {p[0]} exceeds box width {M - n}")
    return lam


def complement(lam: ShapeTuple, M: int, n: int) -> ShapeTuple:
    """Complement in an (M-n) x n box, components in reversed order."""
    return _complement(check_box_tuple(lam, n, M), M - n)


def _complement(lam: ShapeTuple, width: int) -> ShapeTuple:
    """The complement inside a box ``width`` columns wide of partitions that
    fit it: components reversed, each partition reversed, width - part."""
    return tuple(tuple(width - v for v in reversed(p)) for p in reversed(lam))


def rotate(shape: SkewShapeTuple | ShapeTuple) -> SkewShapeTuple:
    """Rotate the whole tuple 180 degrees and reverse component order.

    The result is presented inside the smallest box containing the tuple:
    both beta and gamma are complemented in that box.  A straight tuple is
    accepted and treated as beta/0; rotating the result again returns the
    straight tuple exactly.
    """
    shape = SkewShapeTuple.straight(shape)
    w = max((p[0] for p in shape.beta if p), default=0)
    return SkewShapeTuple._trusted(_complement(shape.gamma, w), _complement(shape.beta, w))


def d_stat(lam: ShapeTuple) -> int:
    """Coinversion offset of the 180-degree rotation bijection.

    Can be negative (e.g. ((1,0),(0,0)) gives -1); the generating functions
    it shifts always carry a compensating power of t.
    """
    return _d_stat(check_box_tuple(lam))


def _d_stat(lam: ShapeTuple) -> int:
    """``d_stat`` of a box tuple known to be valid."""
    k, n = len(lam), len(lam[0])
    count = 0
    for a in range(k):
        for b in range(a + 1, k):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if lam[b][i - 1] - i < lam[a][j - 1] - j:
                        count += 1
    return _binom2(n) * _binom2(k) - count


def dtilde_stat(lam: ShapeTuple, M: int) -> int:
    """Coinversion offset of the column-complement bijection (may be negative)."""
    return _dtilde_stat(check_box_tuple(lam, M=M), M)


def _dtilde_stat(lam: ShapeTuple, M: int) -> int:
    """``dtilde_stat`` of a box tuple known to fit the (M - n)^n box."""
    k, n = len(lam), len(lam[0])
    size = sum(sum(p) for p in lam)
    return (k - 1) * size - n * (M - n) * _binom2(k)


def _binom2(m: int) -> int:
    return m * (m - 1) // 2
