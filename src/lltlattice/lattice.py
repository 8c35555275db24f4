"""The colored five-vertex model behind the LLT partition function.

A lattice is an n-row grid of faces, rows numbered 1..n bottom to top with
variable x_i on row i, columns indexed r..s left to right.  Edge labels are
subsets of the k colors: the bottom and top hold each color's columns, while a
face's labels, a row's right label and the YBE weight oracles' labels are
bitmasks (bit i-1 is color i), and the row DP reads color-major row masks (bit
(i-1)*ncols + c is color i at face c).  Paths enter a face from the bottom or
left and leave via the top or right; a face is admissible when the colors
entering equal the colors leaving and no color enters twice.  The weight of an
admissible face is

    x^(# colors leaving right) * prod over colors i leaving right of
    t^(# colors larger than i present in the face)

so a configuration's weight is one monomial; ``_exponents`` alone counts it.
The gray face weight is x^k t^C(k,2) times the plain one at x -> 1/(x t^(k-1)),
so a lattice of gray rows is not a second model: ``gray_rows`` maps the plain
partition function onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import index, lt, or_

from .algebra import LaurentPoly, VarSet, _Packing
from .shapes import (
    ShapeTuple,
    SkewShapeTuple,
    _binom2,
    check_box_tuple,
    check_int,
    check_n,
    column_range,
    label_columns,
)
from .tableaux import TableauTuple


def mask_of(bits) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


def masks(k: int, *labels) -> tuple[int, ...]:
    """Edge labels as bitmasks; each label is a mask or a 0/1 tuple naming
    colors among 1..k, else ValueError."""
    out = tuple(v if isinstance(v, int) else mask_of(v) for v in labels)
    if k < 0 or reduce(or_, out, 0) >> k:  # a negative label makes the OR negative
        raise ValueError(f"edge labels {labels} are not sets of colors among 1..{k}")
    return out


def _exponents(right: int, present: int, width: int) -> tuple[int, int]:
    """The plain weight's (x, t) exponents of faces given as two color-major
    masks, where each color leaves right and where it is present, with bit
    i*width + c for color i + 1 at face c.  x counts the right steps; t, for
    each pair of colors i < j, the faces where i leaves right and j is
    present: shifting present down d*width bits puts color i + d over i."""
    texp = 0
    while present := present >> width:
        texp += (right & present).bit_count()
    return right.bit_count(), texp


def face_weight_exponents(I: int, J: int, K: int, L: int):
    """(x-exponent, t-exponent) of an admissible plain face, else None."""
    if I & J:
        return None
    present = I | J
    if (K | L) != present or (K & L):
        return None
    return _exponents(L, present, 1)


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


def _check_columns(where: str, columns, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Each color's columns as a tuple of ints; ValueError, naming where and
    the color, unless they are integers increasing strictly within 0..ncols-1."""
    out = []
    for color, cols in enumerate(columns, 1):
        try:
            cols = tuple(map(index, cols))
        except TypeError:
            raise ValueError(f"{where} columns {cols} of color {color} are not integers") from None
        if not all(map(lt, (-1, *cols), (*cols, ncols))):
            raise ValueError(f"{where} columns {cols} of color {color} do not "
                             f"increase strictly within 0..{ncols - 1}")
        out.append(cols)
    return tuple(out)


@dataclass(frozen=True)
class LatticeSpec:
    """Boundary data of a lattice on the columns r..r+ncols-1: per color, the
    columns, counted from r and increasing, where its paths cross the bottom
    and the top (the row DP's first and last states), and per row the mask of
    the colors leaving through the right edge.  Left labels are always empty."""

    r: int
    ncols: int
    bottom: tuple[tuple[int, ...], ...]
    top: tuple[tuple[int, ...], ...]
    right: tuple[int, ...]
    n: int = field(init=False, compare=False)  # rows: one per right label, at least one

    def __post_init__(self):
        ncols, k = check_int(self.ncols, "ncols"), len(self.bottom)
        vars(self).update(r=check_int(self.r, "r"), ncols=ncols,
                          bottom=_check_columns("bottom", self.bottom, ncols),
                          top=_check_columns("top", self.top, ncols), right=tuple(self.right))
        if len(self.top) != k:
            raise ValueError(f"bottom and top name {k} and {len(self.top)} colors")
        if not k:
            raise ValueError("a lattice needs at least one color")
        for row, label in enumerate(self.right, 1):
            if check_int(label, f"right label at row {row}") >> k:  # nonzero if negative too
                raise ValueError(f"right label {label} at row {row} is not a subset of 1..{k}")
        for bit, (flow, out) in enumerate(zip(self.bottom, self.top)):
            if len(flow) != len(out) + sum((m >> bit) & 1 for m in self.right):
                raise ValueError(f"color {bit + 1} is not conserved by the boundary")
        object.__setattr__(self, "n", check_n(len(self.right)))

    @classmethod
    def _trusted(cls, r: int, ncols: int, bottom, top, right: tuple[int, ...]) -> "LatticeSpec":
        """A spec whose checks already hold: tuples of ints from a checked shape."""
        spec = object.__new__(cls)
        vars(spec).update(r=r, ncols=ncols, bottom=bottom, top=top, right=right, n=len(right))
        return spec

    @property
    def k(self) -> int:
        return len(self.bottom)


def _labels(columns, width: int) -> tuple[int, ...]:
    """Label masks of columns 0..width-1 from each color's columns."""
    out = [0] * width
    for color, cols in enumerate(columns):
        for c in cols:
            out[c] |= 1 << color
    return tuple(out)


def _columns(p, r: int) -> tuple[int, ...]:
    """The label columns of partition p counted from r, increasing."""
    return tuple(c - r for c in reversed(label_columns(p)))


def build_lattice(shape: SkewShapeTuple, n: int) -> LatticeSpec:
    """The lattice whose partition function is the LLT polynomial of shape."""
    r, s = column_range(shape)
    bottom, top = (tuple(_columns(mu, r) for mu in side) for side in (shape.gamma, shape.beta))
    return LatticeSpec._trusted(r, s - r + 1, bottom, top, (0,) * check_n(n))


def build_box_lattice(lam: ShapeTuple, M: int, n: int, right_exit: bool = False) -> LatticeSpec:
    """Lattice on the full M-column window 1-n..M-n with bottom boundary lam.

    With right_exit the paths leave through the right edge (top empty);
    otherwise the top boundary is the k-fold (M-n)^n box.
    """
    lam = check_box_tuple(lam, n, M)
    M, n = index(M), index(n)  # checked above; plain ints, as LatticeSpec makes them
    k, r = len(lam), 1 - n
    bottom = tuple(_columns(p, r) for p in lam)
    if right_exit:
        top, right = ((),) * k, ((1 << k) - 1,) * n
    else:
        top, right = (_columns((M - n,) * n, r),) * k, (0,) * n
    return LatticeSpec._trusted(r, M, bottom, top, right)


# -- row machinery -------------------------------------------------------------


def _color_moves(bit: int, bottoms: tuple[int, ...], caps: tuple[int, ...], ncols: int,
                 exit_right: int, left: int) -> list[tuple[tuple[int, ...], int, int]]:
    """Color bit + 1's moves across a row with `left` rows above, from which
    its paths can still finish, as (tops, right, present).

    Paths pair up in order and move weakly right, each left of its right
    neighbour's column below the row, and only the rightmost may leave right.
    So path j ends within [caps[j - left] + left, caps[j]], each bound where
    it exists: it never passes its top column, and path j - left must still
    reach its own in `left` rows (at left = 0, path j ends on caps[j]).
    right and present are the faces where the color leaves right and where
    it is present, as `_exponents` reads them: column c at bit bit*ncols + c,
    [b, e) and [b, e] for a path from bottom column b to top column e, e =
    ncols (no face: `full` drops it) if it leaves right."""
    m = len(bottoms) - exit_right  # >= 0: the spec conserves each color
    walls = bottoms[1:] + (ncols,)
    ranges = []
    for j in range(m):
        lo, hi = bottoms[j], walls[j] - 1
        if j < len(caps):
            hi = min(hi, caps[j])
        if j >= left:
            lo = max(lo, caps[j - left] + left)
        ranges.append(range(lo, hi + 1))
    moves, full = [], (1 << ncols) - 1
    for tops in product(*ranges):
        right = ends = 0
        for b, e in zip(bottoms, tops + (ncols,)):
            right |= (1 << e) - (1 << b)
            ends |= 1 << e
        moves.append((tops, right << bit * ncols, ((right | ends) & full) << bit * ncols))
    return moves


def _row_transitions(spec: LatticeSpec):
    """The row step of spec: step(row, state) yields (tops, x-exp, t-exp)
    for every admissible row above state whose tops can still reach spec.top
    (on the last row, reach it).  States and tops hold each color's columns;
    the weight is the plain one, `_exponents` of the row's color-major masks,
    the sums of its colors' disjoint move masks.  Each color's moves are
    computed once per step function, keyed by color, bottoms, exit bit and
    the rows above capped at len(bottoms), past which no lower bound
    applies."""
    ncols, caps = spec.ncols, spec.top
    moves: dict[tuple, list] = {}

    def step(row: int, state: tuple[tuple[int, ...], ...]):
        exits, left = spec.right[row - 1], spec.n - row
        per_color = []
        for bit, bottoms in enumerate(state):
            key = (bit, bottoms, (exits >> bit) & 1, min(left, len(bottoms)))
            choices = moves.get(key)
            if choices is None:
                choices = moves[key] = _color_moves(bit, bottoms, caps[bit], ncols, key[2], left)
            if not choices:
                return
            per_color.append(choices)
        for combo in product(*per_color):
            tops, rights, presents = zip(*combo)
            yield tops, *_exponents(sum(rights), sum(presents), ncols)

    return step


def partition_function(spec: LatticeSpec) -> LaurentPoly:
    """Exact partition function by row-to-row dynamic programming.

    The DP state after row i is the vertical edge labels between rows i and
    i+1, held as each color's occupied columns; values count monomials in
    x_1..x_i and t as ``_Packing`` keys.  Row i's x field holds its right
    steps: at most one per color and column, so at most k * ncols.
    """
    packing = _Packing(VarSet(nx=spec.n), spec.k * spec.ncols)
    step, top = _row_transitions(spec), packing.top
    states: dict[tuple, dict[int, int]] = {spec.bottom: {0: 1}}
    for row, xshift in enumerate(packing.shifts, 1):
        nxt: dict[tuple, dict[int, int]] = {}
        for state, terms in states.items():
            for tops, xexp, texp in step(row, state):
                shift = (xexp << xshift) + (texp << top)
                bucket = nxt.setdefault(tops, {})
                for key, c in terms.items():
                    key += shift
                    bucket[key] = bucket.get(key, 0) + c
        states = nxt
    # every coefficient counts configurations, so none is zero
    return packing.poly(states.get(spec.top, {}))


@dataclass(frozen=True)
class LatticeConfig:
    """A fully labelled lattice, held as the row DP's levels 0..n (level 0 is
    the bottom boundary, level n the top), each holding each color's columns.
    They fix the horizontal labels, which `faces` reads as masks: the left
    edge is empty and every face conserves colors, so each face passes right
    the colors that enter it and do not leave through its top."""

    spec: LatticeSpec
    verticals: tuple[tuple[tuple[int, ...], ...], ...]

    def faces(self, row: int):
        """(I, J, K, L) of each face of the 1-based row, left to right, as masks."""
        J = 0
        for I, K in zip(*(_labels(self.verticals[h], self.spec.ncols) for h in (row - 1, row))):
            L = (I | J) & ~K
            yield I, J, K, L
            J = L

    def weight_exponents(self) -> tuple[list[int], int]:
        """Per-row x exponents and the t exponent; ValueError unless levels 0
        and n are the spec's bottom and top, every level's columns increase
        strictly within the lattice, every face is admissible and each row
        passes its right label out of the right edge."""
        spec = self.spec
        if self.verticals[:1] + self.verticals[spec.n:] != (spec.bottom, spec.top):
            raise ValueError(f"levels 0..{spec.n} do not run from the bottom boundary to the top")
        xexps, texp = [0] * spec.n, 0
        for row in range(1, spec.n + 1):
            _check_columns(f"level {row}", self.verticals[row], spec.ncols)
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

    def weight(self) -> LaurentPoly:
        xexps, texp = self.weight_exponents()
        return LaurentPoly.monomial(VarSet(nx=self.spec.n), 1, tuple(xexps) + (texp,))


def enumerate_configs(spec: LatticeSpec) -> list[LatticeConfig]:
    """Every lattice configuration exactly once, in the row step's order: depth
    first, by a loop over a stack of partial ones (levels so far), at any n."""
    out, step, stack = [], _row_transitions(spec), [(spec.bottom,)]
    while stack:
        verts = stack.pop()
        if len(verts) > spec.n:  # the last row's bounds end every path on spec.top
            out.append(LatticeConfig(spec, verts))
        else:
            stack += reversed([verts + (tops,) for tops, _, _ in step(len(verts), verts[-1])])
    return out


# -- the bijection with tableaux ----------------------------------------------


def ssyt_to_config(T, n: int) -> LatticeConfig:
    """Row-by-row path encoding of a tableau tuple: the path of a row of
    component i carries color i, and at level h it stands at its start
    column plus the number of the row's entries that are at most h."""
    spec = build_lattice(T.shape, n)
    return LatticeConfig(spec, tuple(
        tuple(tuple(start - spec.r + sum(e <= h for e in entries)
                    for start, entries in zip(label_columns(gamma), rows, strict=True))[::-1]
              for gamma, rows in zip(T.shape.gamma, T.rows))
        for h in range(n + 1)))


def config_to_ssyt(config: LatticeConfig):
    """Invert the path encoding; ValueError if weight_exponents refuses the
    config.  Paths of one color never meet, so the m-th from the right is
    row m of its component, which gains one entry h per column it moves
    right on row h."""
    config.weight_exponents()
    spec, n = config.spec, config.spec.n
    levels = [[cols[::-1] for cols in level] for level in config.verticals]
    # right to left, a color's bottom (top) columns are the labels of parts
    # 1, 2, ... of gamma (beta); part m is label + m - 1, as label_columns says
    beta, gamma = (tuple(tuple(spec.r + c + m for m, c in enumerate(cols)) for cols in level)
                   for level in (levels[n], levels[0]))
    shape = SkewShapeTuple(beta, gamma)
    rows = tuple(tuple(tuple(h for h in range(1, n + 1) for _ in range(path[h] - path[h - 1]))
                       for path in zip(*(level[i] for level in levels), strict=True))
                 for i in range(shape.k))
    return TableauTuple(shape, rows)


# -- 180-degree rotation of box configurations ---------------------------------


def rotate_config(config: LatticeConfig) -> LatticeConfig:
    """Rotate a box configuration 180 degrees and reverse the colors.

    The input must live on a box lattice (bottom lam, top the full box); the
    output lives on the box lattice with bottom empty and top the complement
    tuple.  Horizontal steps stay horizontal, so the total x-degree is
    preserved (row i maps to row n+1-i), and column c maps to ncols-1-c.
    """
    spec = config.spec
    if any(spec.right):
        raise ValueError("rotation is defined for lattices with empty right edge")
    k, n, ncols = spec.k, spec.n, spec.ncols
    # accept the (lam, box) family (top: every color on the box's columns, as
    # build_box_lattice builds them) and its rotated image (bottom: on the
    # empty partition's), so the map is an involution
    if spec.r != 1 - n or (spec.top != (_columns((ncols - n,) * n, spec.r),) * k
                           and spec.bottom != (_columns((0,) * n, spec.r),) * k):
        raise ValueError("top boundary is not a full box")
    verts = tuple(tuple(tuple(ncols - 1 - c for c in reversed(cols)) for cols in reversed(level))
                  for level in reversed(config.verticals))
    new_spec = LatticeSpec(r=spec.r, ncols=ncols, bottom=verts[0], top=verts[n], right=(0,) * n)
    return LatticeConfig(new_spec, verts)
