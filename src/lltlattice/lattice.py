"""The colored five-vertex model behind the LLT partition function.

A lattice is an n-row grid of faces, rows numbered 1..n bottom to top with
variable x_i on row i, columns indexed r..s left to right.  Edge labels are
subsets of the k colors, stored as bitmasks (bit i-1 is color i).  Paths
enter a face from the bottom or left and leave via the top or right; a face
is admissible when the colors entering equal the colors leaving and no color
enters twice.  The weight of an admissible face is

    x^(# colors leaving right) * prod over colors i leaving right of
    t^(# colors larger than i present in the face)

so a configuration's weight is one monomial, tracked as an exponent vector.
The gray face weight is x^k t^C(k,2) times the plain one at x -> 1/(x t^(k-1)),
so a lattice of gray rows is not a second model: ``gray_rows`` maps the plain
partition function onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import or_

from .algebra import LaurentPoly, VarSet
from .shapes import (
    ShapeTuple,
    SkewShapeTuple,
    _binom2,
    check_box_tuple,
    check_n,
    column_range,
    label_columns,
)
from .tableaux import TableauTuple


def mask_of(bits) -> int:
    m = 0
    for i, b in enumerate(bits):
        if b:
            m |= 1 << i
    return m


def masks(k: int, *labels) -> tuple[int, ...]:
    """Edge labels as bitmasks; each label is a mask or a 0/1 tuple naming
    colors among 1..k, else ValueError."""
    # from a list: tuple() of a generator resizes and piles spare tuples on free lists
    out = tuple([v if isinstance(v, int) else mask_of(v) for v in labels])
    if k < 0 or reduce(or_, out, 0) >> k:  # a negative label makes the OR negative
        raise ValueError(f"edge labels {labels} are not sets of colors among 1..{k}")
    return out


def _t_exponent(present: int, L: int) -> int:
    """Sum over colors i leaving right of the colors larger than i present."""
    texp = 0
    while L:
        b = (L & -L).bit_length() - 1
        texp += (present >> (b + 1)).bit_count()
        L &= L - 1
    return texp


def face_weight_exponents(I: int, J: int, K: int, L: int):
    """(x-exponent, t-exponent) of an admissible plain face, else None."""
    if I & J:
        return None
    present = I | J
    if (K | L) != present or (K & L):
        return None
    return L.bit_count(), _t_exponent(present, L)


def _gray(k: int, faces: int, xexp: int, texp: int) -> tuple[int, int]:
    """Exponents of `faces` gray faces whose plain exponents sum to
    (xexp, texp): x -> 1/(x t^(k-1)), then x^k t^C(k,2) per face.  With
    no faces this is the bare substitution, applied to one monomial."""
    return k * faces - xexp, faces * _binom2(k) + texp - (k - 1) * xexp


def gray_rows(P: LaurentPoly, k: int, faces: int) -> LaurentPoly:
    """P with every x row sent through _gray as a row of `faces` faces.

    Gray rows are the substituted plain rows, so on a lattice of rows
    `faces` columns wide this maps the plain partition function to the gray
    one.  The map is injective on monomials, so no two terms merge.
    """
    nx, tslot = P.vars.nx, P.vars.t_index
    out = {}
    for e, c in P.terms.items():
        new = list(e)
        for i in range(nx):
            new[i], new[tslot] = _gray(k, faces, e[i], new[tslot])
        out[tuple(new)] = c
    return LaurentPoly._trusted(P.vars, out)


@dataclass(frozen=True)
class LatticeSpec:
    """Boundary data of a lattice: bottom and top labels of the columns
    r, r+1, ..., and one right label per row (left labels are always empty)."""

    k: int
    r: int
    bottom: tuple[int, ...]
    top: tuple[int, ...]
    right: tuple[int, ...]
    n: int = field(init=False, compare=False)  # rows: one per right label
    # per color, the columns of bottom and of top that carry it: the DP's
    # first and last states
    columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        width = len(self.bottom)
        if width != len(self.top):
            raise ValueError("bottom and top boundaries differ in length")
        given = (*self.bottom, *self.top, *self.right)
        try:
            ints = masks(self.k, *given)
        except ValueError:  # name the side, and the column or row, of the first bad label
            for side, place, first, labels in (("bottom", "column", self.r, self.bottom),
                                               ("top", "column", self.r, self.top),
                                               ("right", "row", 1, self.right)):
                for at, label in enumerate(labels, first):
                    try:
                        masks(self.k, label)
                    except ValueError:
                        raise ValueError(f"{side} label {label} at {place} {at} is not a set of "
                                         f"colors among 1..{self.k}") from None
            raise
        if ints != given:  # some labels were 0/1 tuples: keep their masks
            vars(self).update(bottom=ints[:width], top=ints[width:2 * width], right=ints[2 * width:])
        bottom, top = _color_columns(self.bottom, self.k), _color_columns(self.top, self.k)
        for bit, (flow, out) in enumerate(zip(bottom, top)):
            if len(flow) != len(out) + sum((m >> bit) & 1 for m in self.right):
                raise ValueError(f"color {bit + 1} is not conserved by the boundary")
        object.__setattr__(self, "n", len(self.right))
        object.__setattr__(self, "columns", (bottom, top))

    @property
    def ncols(self) -> int:
        return len(self.bottom)


def _labels(columns, width: int, first: int = 0) -> tuple[int, ...]:
    """Label masks of positions first..first+width-1 from each color's positions."""
    out = [0] * width
    for color, cols in enumerate(columns):
        for c in cols:
            out[c - first] |= 1 << color
    return tuple(out)


def _color_columns(labels: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Per color, the columns whose label carries it: the DP's state form."""
    return tuple(tuple(c for c, m in enumerate(labels) if (m >> bit) & 1) for bit in range(k))


def build_lattice(shape: SkewShapeTuple, n: int) -> LatticeSpec:
    """The lattice whose partition function is the LLT polynomial of shape."""
    check_n(n)
    r, s = column_range(shape)
    bottom, top = (_labels(map(label_columns, mu), s - r + 1, r)
                   for mu in (shape.gamma, shape.beta))
    return LatticeSpec(k=shape.k, r=r, bottom=bottom, top=top, right=(0,) * n)


def build_box_lattice(lam: ShapeTuple, M: int, n: int, right_exit: bool = False) -> LatticeSpec:
    """Lattice on the full M-column window 1-n..M-n with bottom boundary lam.

    With right_exit the paths leave through the right edge (top empty);
    otherwise the top boundary is the k-fold (M-n)^n box.
    """
    lam = check_box_tuple(lam, n, M)
    k = len(lam)
    r = 1 - n
    bottom = _labels(map(label_columns, lam), M, r)
    full = (1 << k) - 1
    if right_exit:
        top = (0,) * M
        right = (full,) * n
    else:
        top = _labels([label_columns((M - n,) * n)] * k, M, r)
        right = (0,) * n
    return LatticeSpec(k=k, r=r, bottom=bottom, top=top, right=right)


# -- row machinery -------------------------------------------------------------


def _color_moves(bottoms: tuple[int, ...], caps: tuple[int, ...], ncols: int,
                 exit_right: int, last: bool) -> list[tuple[tuple[int, ...], int, int]]:
    """One color's moves across a row from which its paths can still finish,
    as (tops, right, present).

    Paths pair up in order and move weakly right; consecutive paths may not
    share a face, and only the rightmost path may leave through the right
    edge.  So the j-th path never passes caps[j], the color's j-th top
    column, and on the last row it ends there; paths beyond len(caps) leave
    through the right edge in some row and are uncapped.  right and present
    are column bitmasks of the faces where the color leaves right and where
    it is present: [b, e) and [b, min(e, ncols-1)] for a path from bottom
    column b to top column e, with e = ncols for the path that leaves right.
    """
    m = len(bottoms) - exit_right
    if m < 0:
        return []
    ends = bottoms[1:] + (ncols,)
    ranges = []
    for j in range(m):
        lo, hi = bottoms[j], ends[j] - 1
        if j < len(caps):
            hi = min(hi, caps[j])
            if last:
                lo = max(lo, caps[j])
        ranges.append(range(lo, hi + 1))
    moves = []
    for tops in product(*ranges):
        right = present = 0
        for b, e in zip(bottoms, tops + (ncols,)):
            right |= (1 << e) - (1 << b)
            present |= (1 << min(e + 1, ncols)) - (1 << b)
        moves.append((tops, right, present))
    return moves


def _row_transitions(spec: LatticeSpec):
    """The row step of spec: step(row, state) yields (tops, x-exp, t-exp)
    for every admissible row above state whose tops can still reach spec.top
    (on the last row, reach it).  States and tops hold each color's columns;
    the weight is plain: x counts the right steps, and t, for each pair of
    colors i < j, the faces where i leaves right and j is present.  Each
    color's moves are computed once per step function, keyed by color,
    bottoms, exit bit and last row or not.
    """
    ncols, caps = spec.ncols, spec.columns[1]
    moves: dict[tuple, list] = {}

    def step(row: int, state: tuple[tuple[int, ...], ...]):
        exits, last = spec.right[row - 1], row == spec.n
        per_color = []
        for bit, bottoms in enumerate(state):
            key = (bit, bottoms, (exits >> bit) & 1, last)
            choices = moves.get(key)
            if choices is None:
                choices = moves[key] = _color_moves(bottoms, caps[bit], ncols, key[2], last)
            if not choices:
                return
            per_color.append(choices)
        for combo in product(*per_color):
            tops, rights, presents = zip(*combo)
            xexp = texp = 0
            for i, right in enumerate(rights):
                xexp += right.bit_count()
                for present in presents[i + 1:]:
                    texp += (right & present).bit_count()
            yield tops, xexp, texp

    return step


def partition_function(spec: LatticeSpec) -> LaurentPoly:
    """Exact partition function by row-to-row dynamic programming.

    The DP state after row i is the vertical edge labels between rows i and
    i+1, held as each color's occupied columns; values are polynomials in
    x_1..x_i and t.
    """
    vars = VarSet(nx=spec.n)
    width = vars.total
    tslot = vars.t_index
    step = _row_transitions(spec)
    bottom, top = spec.columns
    states: dict[tuple, dict[tuple, int]] = {bottom: {(0,) * width: 1}}
    for row in range(1, spec.n + 1):
        xslot = row - 1
        nxt: dict[tuple, dict[tuple, int]] = {}
        for state, terms in states.items():
            for tops, xexp, texp in step(row, state):
                bucket = nxt.setdefault(tops, {})
                for e, c in terms.items():
                    ne = list(e)
                    ne[xslot] += xexp
                    ne[tslot] += texp
                    key = tuple(ne)
                    bucket[key] = bucket.get(key, 0) + c
        states = nxt
        if not states:
            break
    # every coefficient counts configurations, so none is zero
    return LaurentPoly._trusted(vars, states.get(top, {}))


@dataclass(frozen=True)
class LatticeConfig:
    """A fully labelled lattice, held as its vertical labels on n+1 levels
    (level 0 is the bottom boundary, level n the top).  They fix the
    horizontal labels: the left edge is empty and every face conserves
    colors, so each face passes right the colors that enter it and do not
    leave through its top."""

    spec: LatticeSpec
    verticals: tuple[tuple[int, ...], ...]

    def faces(self, row: int):
        """(I, J, K, L) of each face of the 1-based row, left to right."""
        J = 0
        for I, K in zip(self.verticals[row - 1], self.verticals[row], strict=True):
            L = (I | J) & ~K
            yield I, J, K, L
            J = L

    def weight_exponents(self) -> tuple[list[int], int]:
        """Per-row x exponents and the t exponent; ValueError unless levels 0
        and n are the spec's bottom and top, every face is admissible and
        each row passes its right label out of the right edge."""
        spec = self.spec
        if self.verticals[:1] + self.verticals[spec.n:] != (spec.bottom, spec.top):
            raise ValueError(f"levels 0..{spec.n} do not run from the bottom boundary to the top")
        xexps, texp = [0] * spec.n, 0
        for row in range(1, spec.n + 1):
            L = 0
            for c, (I, J, K, L) in enumerate(self.faces(row)):
                data = face_weight_exponents(I, J, K, L)
                if data is None:
                    raise ValueError(f"inadmissible face at row {row}, column {c + spec.r}")
                xexps[row - 1] += data[0]
                texp += data[1]
            if L != spec.right[row - 1]:
                raise ValueError(f"row {row} passes {L} out of the right edge, "
                                 f"not its right label {spec.right[row - 1]}")
        return xexps, texp

    def coinv(self) -> int:
        """The t exponent of the configuration weight."""
        return self.weight_exponents()[1]

    def weight(self) -> LaurentPoly:
        vars = VarSet(nx=self.spec.n)
        xexps, texp = self.weight_exponents()
        return LaurentPoly.monomial(vars, 1, tuple(xexps) + (texp,))


def enumerate_configs(spec: LatticeSpec) -> list[LatticeConfig]:
    """Every lattice configuration exactly once, in the row step's order."""
    out: list[LatticeConfig] = []
    step, ncols = _row_transitions(spec), spec.ncols

    def rec(row: int, state, verts: tuple):
        if row > spec.n:  # the last row's caps end every path on spec.top
            out.append(LatticeConfig(spec, verts))
            return
        for tops, _, _ in step(row, state):
            rec(row + 1, tops, verts + (_labels(tops, ncols),))

    rec(1, spec.columns[0], (spec.bottom,))
    return out


# -- the bijection with tableaux ----------------------------------------------


def ssyt_to_config(T, n: int) -> LatticeConfig:
    """Row-by-row path encoding of a tableau tuple: the path of a row of
    component i carries color i, and at level h it stands at its start
    column plus the number of the row's entries that are at most h."""
    shape = T.shape
    spec = build_lattice(shape, n)
    vert = [[0] * spec.ncols for _ in range(n + 1)]
    for i in range(shape.k):
        for start, entries in zip(label_columns(shape.gamma[i]), T.rows[i], strict=True):
            for h in range(n + 1):
                vert[h][start - spec.r + sum(e <= h for e in entries)] |= 1 << i
    return LatticeConfig(spec, tuple(map(tuple, vert)))


def config_to_ssyt(config: LatticeConfig):
    """Invert the path encoding; ValueError if weight_exponents refuses the
    config.  Paths of one color never meet, so the m-th from the right is
    row m of its component, which gains one entry h per column it moves
    right on row h."""
    config.weight_exponents()
    spec, n = config.spec, config.spec.n
    levels = [[cols[::-1] for cols in _color_columns(v, spec.k)] for v in config.verticals]
    # right to left, a color's bottom (top) columns are the labels of parts
    # 1, 2, ... of gamma (beta); part m is label + m - 1, as label_columns says
    beta, gamma = (tuple(tuple(spec.r + c + m for m, c in enumerate(cols)) for cols in level)
                   for level in (levels[n], levels[0]))
    shape = SkewShapeTuple(beta, gamma)
    rows = []
    for i in range(shape.k):
        paths = zip(*(level[i] for level in levels), strict=True)  # each path's column per level
        rows.append(tuple(tuple(h for h in range(1, n + 1) for _ in range(path[h] - path[h - 1]))
                          for path in paths))
    return TableauTuple(shape, tuple(rows))


# -- 180-degree rotation of box configurations ---------------------------------


def _reverse_colors(mask: int, k: int) -> int:
    out = 0
    for i in range(k):
        if (mask >> i) & 1:
            out |= 1 << (k - 1 - i)
    return out


def rotate_config(config: LatticeConfig) -> LatticeConfig:
    """Rotate a box configuration 180 degrees and reverse the colors.

    The input must live on a box lattice (bottom lam, top the full box); the
    output lives on the box lattice with bottom empty and top the complement
    tuple.  Horizontal steps stay horizontal, so the total x-degree is
    preserved (row i maps to row n+1-i).
    """
    spec = config.spec
    if any(spec.right):
        raise ValueError("rotation is defined for lattices with empty right edge")
    k, n, ncols = spec.k, spec.n, spec.ncols
    if spec.r != 1 - n or ncols < n or not k:  # no box is narrower than n columns or colorless
        raise ValueError("top boundary is not a full box")
    # accept both the (lam, box) family and its rotated (empty, complement)
    # image, so the map is an involution
    empty = build_box_lattice(((0,) * n,) * k, ncols, n)
    if spec.top != empty.top and spec.bottom != empty.bottom:
        raise ValueError("top boundary is not a full box")
    verts = tuple(tuple(_reverse_colors(m, k) for m in reversed(level))
                  for level in reversed(config.verticals))
    new_spec = LatticeSpec(k=k, r=spec.r, bottom=verts[0], top=verts[n], right=(0,) * n)
    return LatticeConfig(new_spec, verts)
