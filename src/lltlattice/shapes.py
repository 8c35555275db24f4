"""Partitions, tuples of skew shapes, and their combinatorial statistics.

Partitions are tuples of weakly decreasing nonnegative ints with a fixed
declared number of parts; trailing zeros are significant.  A k-tuple of skew
shapes is a pair of such tuples (beta, gamma) with componentwise containment.
Cells use French convention: row 1 at the bottom, cell (row, col) has content
col - row, and columns strictly increase going up.

A triple of components a < b is a pair of adjacent positions u, w in one row
of b (either may lie just outside the shape) with a cell v of a on the
content line of w.  ``_pair_positions`` is the package's one enumeration of
triples, one pair of components at a time, and ``_pair_triples`` gathers
them for a tuple, each distinct pair once per call: ``m_bruteforce`` counts
them, and the tableau engine counts the coinversions among them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate, combinations, repeat
from operator import ge, index, sub

Partition = tuple[int, ...]
ShapeTuple = tuple[Partition, ...]


def check_partition(parts) -> Partition:
    try:
        p = tuple(map(index, parts))
    except TypeError:
        raise ValueError(f"parts must be integers, not {parts!r}") from None
    if p and min(p) < 0:
        raise ValueError(f"negative part in {p}")
    if not all(map(ge, p, p[1:])):
        raise ValueError(f"parts not weakly decreasing: {p}")
    return p


def check_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """value through operator.index, at least ``low`` and at most ``high``
    when given, else ValueError naming it: the one integer range rule."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}")
    return value


def check_size(value: int, name: str) -> int:
    """A size read from the command line, refused above sys.maxsize: no
    larger value is a length or an index, so none can be worked with."""
    return check_int(value, name, high=sys.maxsize)


def check_n(n: int) -> int:
    """The one rule on a variable count: n is an integer, at least 1."""
    return check_int(n, "n", 1)


def check_shape_tuple(shapes) -> ShapeTuple:
    try:
        tup = tuple(map(check_partition, shapes))
    except TypeError:
        raise ValueError(f"a shape tuple must be a sequence of partitions, not {shapes!r}") from None
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
            if not all(map(ge, b, g)):
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
        beta = check_shape_tuple(beta)
        return cls._trusted(beta, tuple((0,) * len(b) for b in beta))

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
    check_size(max(map(max, parts)), f"{flag} parts")
    try:
        return check_shape_tuple(parts)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


# -- boundary data for the lattice ------------------------------------------


def label_columns(p: Partition) -> tuple[int, ...]:
    """Columns p_m - m + 1 over all declared parts; strictly decreasing."""
    return tuple(map(sub, p, range(len(p))))


def column_range(shape: SkewShapeTuple) -> tuple[int, int]:
    """(r, s): leftmost gamma label and rightmost beta label."""
    if not any(shape.gamma):
        return (0, 0)
    # labels strictly decrease along a partition: its last is its least
    return (min(label_columns(g)[-1] for g in shape.gamma if g),
            max(b[0] for b in shape.beta if b))


# -- triples ------------------------------------------------------------------


def _row_starts(beta: Partition, gamma: Partition) -> list[int]:
    """starts[row - 1] + col is the flat position of cell (row, col)."""
    ends = accumulate(map(sub, beta, gamma), initial=0)
    return [end - g - 1 for end, g in zip(ends, gamma)]


def _pair_positions(beta_a: Partition, gamma_a: Partition,
                    beta_b: Partition, gamma_b: Partition) -> tuple[tuple[int, int, int], ...]:
    """The triples of components a < b as (pos_v in a, pos_u in b, pos_w in
    b), each a flat cell position in ``SkewShapeTuple.cells`` order; they
    depend on the two components only.

    Each row of b gives the adjacent pairs (u, w) = ((row, q), (row, q+1))
    for q from gamma_row to beta_row; u is outside the shape at q =
    gamma_row (column 0 included when gamma_row = 0) and w is outside at q =
    beta_row, and an outside u or w is -1.  Each cell v of a on the content
    line of w completes a triple.
    """
    rows_a = list(zip(range(1, len(beta_a) + 1), gamma_a, beta_a, _row_starts(beta_a, gamma_a)))
    out = []
    for row, lo, hi, start in zip(range(1, len(beta_b) + 1), gamma_b, beta_b,
                                  _row_starts(beta_b, gamma_b)):
        for q in range(lo, hi + 1):
            pos_u = start + q if q > lo else -1
            pos_w = start + q + 1 if q < hi else -1
            for v_row, v_lo, v_hi, v_start in rows_a:
                v_col = q + 1 - row + v_row     # on the content line of w
                if v_lo < v_col <= v_hi:
                    out.append((v_start + v_col, pos_u, pos_w))
    return tuple(out)


class _Lazy(dict):
    """A dict that builds a missing key's value once, as ``make(key)``."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _pair_triples(shape: SkewShapeTuple) -> list[tuple[int, int, tuple[tuple[int, int, int], ...]]]:
    """All triples of the tuple as flat cell positions, one (a, b, positions)
    per pair of components a < b that share at least one triple (see
    ``_pair_positions``; a tuple may repeat a component)."""
    comps = list(zip(shape.beta, shape.gamma))
    found = _Lazy(lambda pair: _pair_positions(*pair[0], *pair[1]))
    return [(a, b, trips) for b, comp_b in enumerate(comps) for a, comp_a in enumerate(comps[:b])
            if (trips := found[comp_a, comp_b])]


def m_bruteforce(shape: SkewShapeTuple) -> int:
    """Total number of triples, by direct enumeration."""
    return sum(len(trips) for _, _, trips in _pair_triples(shape))


def m_formula(beta: ShapeTuple) -> int:
    """Closed form for the triple count of a tuple of partitions."""
    beta = check_shape_tuple(beta)
    total = 0
    for beta_a, beta_b in combinations(beta, 2):
        for i, (bi, label_i) in enumerate(zip(beta_a, label_columns(beta_a)), 1):
            for j, label_j in enumerate(label_columns(beta_b), 1):
                total += (0 < label_j + i <= bi) + max(min(label_i, label_j) + min(i, j) - 1, 0)
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
    """A k-tuple of partitions with n >= 1 parts each (default: as many as the
    first), inside the (M - n)^n box when M is given; that box needs M >= n."""
    lam = check_shape_tuple(lam)
    n = check_n(len(lam[0]) if n is None else n)
    if M is not None and (M := check_int(M, "M")) < n:
        raise ValueError(f"M must be at least n, not M = {M} with n = {n}")
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
    fit it: components reversed, each one complemented by ``_complement_part``."""
    return tuple(map(_complement_part, reversed(lam), repeat(width)))


def _complement_part(p: Partition, width: int) -> Partition:
    """The box-complement formula for one partition: reversed, width - part."""
    return tuple(width - v for v in reversed(p))


def rotate(shape: SkewShapeTuple | ShapeTuple) -> SkewShapeTuple:
    """Rotate the whole tuple 180 degrees and reverse component order.

    The result is presented inside the smallest box containing the tuple:
    both beta and gamma are complemented in that box.  A straight tuple is
    accepted and treated as beta/0; rotating the result again returns the
    straight tuple exactly.
    """
    shape = SkewShapeTuple.straight(shape)
    beta, gamma = zip(*map(_rotated_component, reversed(shape.beta), reversed(shape.gamma),
                           repeat(_box_width(shape.beta))))
    return SkewShapeTuple._trusted(beta, gamma)


def _box_width(beta: ShapeTuple) -> int:
    """The width of the smallest box that holds every partition of beta."""
    return max((p[0] for p in beta if p), default=0)


def _rotated_component(beta: Partition, gamma: Partition, w: int) -> tuple[Partition, Partition]:
    """One component beta/gamma rotated in a box ``w`` columns wide: the
    complement of gamma over the complement of beta."""
    return _complement_part(gamma, w), _complement_part(beta, w)


def d_stat(lam: ShapeTuple) -> int:
    """Coinversion offset of the 180-degree rotation bijection.

    Can be negative (e.g. ((1,0),(0,0)) gives -1); the generating functions
    it shifts always carry a compensating power of t.
    """
    return _d_stat(check_box_tuple(lam))


def _d_pair(pair: tuple[Partition, Partition]) -> int:
    """How many (i, j) have label i of lam_b left of label j of lam_a (see
    ``label_columns``), for ``pair`` = (lam_a, lam_b) of components a < b."""
    labels_a, labels_b = map(label_columns, pair)
    return sum(label_b < label_a for label_b in labels_b for label_a in labels_a)


def _d_stat(lam: ShapeTuple, d_pair=_d_pair) -> int:
    """``d_stat`` of a box tuple known to be valid: C(n,2) C(k,2) less the
    ``d_pair`` (``_d_pair`` or a memo of it) of every pair of components a < b."""
    return _binom2(len(lam[0])) * _binom2(len(lam)) - sum(map(d_pair, combinations(lam, 2)))


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
