"""R-matrix weights, the color recursion, and Yang-Baxter verification.

Everything here works in the three-variable ring (x, y, t); x is slot 0, y
slot 1, t slot 2.  A crossing face R(I,J;K,L) reads I at the south-west, J at
the north-west, K at the north-east and L at the south-east.  Per color the
admissible patterns (I,J,K,L) and their factors are

    type 1  (0,1,0,1)   1 - y/(x t^d)
    type 2  (0,1,1,0)   y/(x t^d)
    type 3  (1,0,0,1)   1
    type 4  (1,1,1,1)   y/(x t^d)
    type 5  (0,0,0,0)   1

where d counts the colors above this one in type 1; the pattern (1,0,1,0)
is forbidden.  One picture table per kind holds each single-color weight
(d = 0): the crossing expansion, ``ef_weight`` and the color recursion all
read it.  The checkers cover every boundary one block of incoming
labels at a time, by a sparse contraction of the three-face sums on packed
monomials over tables that hold each weight packed straight from the closed
forms (`lattice`'s face exponents, the crossing expansion `r_weight` wraps).
Each block's two sides are compared and dropped.  Numeric mode then
evaluates the two sides at exact rational points, but only at the
boundaries where they differ symbolically: at a point with nonzero x, y and
t evaluation is a ring homomorphism, so equal sides have equal values, and
the report is the one that evaluating every boundary would give.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .algebra import LaurentPoly, VarSet, _Packing
from .lattice import _gray, face_weight_exponents, masks
from .shapes import check_int

YBE_VARS = VarSet(nx=1, ny=1)
_X = 0


# Each single-color picture (I, J, K, L) with its tabulated weight, as
# {(x, y, t) exponents: coefficient}.  The first picture of each table is the
# one E (on faces) or Etilde (on crossings) weighs; the others are F's or
# Ftilde's.
_L_PICTURES = {
    (0, 0, 0, 0): {(0, 0, 0): 1},  # empty
    (1, 0, 0, 1): {(1, 0, 0): 1},  # enters bottom, leaves right
    (0, 1, 0, 1): {(1, 0, 0): 1},  # passes through horizontally
    (1, 0, 1, 0): {(0, 0, 0): 1},  # passes through vertically
    (0, 1, 1, 0): {(0, 0, 0): 1},  # enters left, leaves top
}
_R_PICTURES = {  # crossings in type order 1..5, weights in y/x
    (0, 1, 0, 1): {(0, 0, 0): 1, (-1, 1, 0): -1},
    (0, 1, 1, 0): {(-1, 1, 0): 1},
    (1, 0, 0, 1): {(0, 0, 0): 1},
    (1, 1, 1, 1): {(-1, 1, 0): 1},
    (0, 0, 0, 0): {(0, 0, 0): 1},
}
_TYPE_OF = {pic: ty for ty, pic in enumerate(_R_PICTURES, start=1)}


def _crossing_terms(k: int, I: int, J: int, K: int, L: int, bar: bool) -> dict:
    """{(x, y, t) exponents: coefficient} of R(I,J;K,L), the product of the
    colors' factors expanded; empty when some color breaks the type table.
    A color's factor is its picture's weight with y/x read as y/(x t^d).
    With ``bar`` the x line carries 1/(x t^(k-1)): y/(x t^d) becomes
    x y t^(k-1-d)."""
    terms = {(0, 0, 0): 1}
    delta = 0  # the type-1 colors above color i
    for i in reversed(range(k)):
        pic = ((I >> i) & 1, (J >> i) & 1, (K >> i) & 1, (L >> i) & 1)
        factor = _R_PICTURES.get(pic)
        if factor is None:
            return {}
        above = i + 1
        alg = ((J >> above).bit_count() - (I >> above).bit_count()
               + (L >> above).bit_count() - (K >> above).bit_count())
        if alg != 2 * delta:
            raise AssertionError("delta mismatch between type count and label algebra")
        # y/(x t^delta); barred, through lattice's substitution
        xe, te = _gray(k, 0, -1, -delta) if bar else (-1, -delta)
        expanded: dict = {}
        for (_, p, _), f in factor.items():  # f (y/x)^p
            for (a, b, c), coeff in terms.items():
                exps = (a + p * xe, b + p, c + p * te)
                expanded[exps] = expanded.get(exps, 0) + coeff * f
        terms = expanded
        delta += _TYPE_OF[pic] == 1
    return terms


def r_weight(k: int, I, J, K, L) -> LaurentPoly:
    """Closed-form crossing weight; 0 when some color breaks the type table."""
    return LaurentPoly(YBE_VARS, _crossing_terms(k, *masks(k, I, J, K, L), bar=False))


# -- the E/F tables and the color recursion ------------------------------------

_KINDS = {"E": "L", "F": "L", "Etilde": "R", "Ftilde": "R"}

# kind -> picture -> (its weight, whether the smaller colors see x -> xt): on
# faces E keeps x and F shifts it, on crossings Etilde shifts x and Ftilde
# keeps it.
_BRANCHES = {
    kind: {pic: (LaurentPoly(YBE_VARS, w), (i == 0) == (kind == "R"))
           for i, (pic, w) in enumerate(pictures.items())}
    for kind, pictures in (("L", _L_PICTURES), ("R", _R_PICTURES))
}


def ef_weight(kind: str, picture) -> LaurentPoly:
    """Tabulated single-color weight for kind in E, F, Etilde, Ftilde."""
    pic = tuple(picture)
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    branches = _BRANCHES[_KINDS[kind]]
    if pic not in branches:
        what = "face" if _KINDS[kind] == "L" else "crossing"
        raise ValueError(f"unknown single-color {what} picture {pic}")
    first = pic == next(iter(branches))
    return branches[pic][0] if first == (kind in ("E", "Etilde")) else LaurentPoly.zero(YBE_VARS)


# The two caches below hold one value per k (k <= 6 through the CLI) and per
# kind or flavor, so these bounds keep every key the checks use.
@lru_cache(maxsize=14)
def _recursive_table(k: int, kind: str) -> dict:
    """All nonzero k-color face ("L") or crossing ("R") weights, built by the
    one-color-at-a-time rule: the new color k follows one single-color
    picture and the colors below it see x or xt."""
    if k == 0:
        return {(0, 0, 0, 0): LaurentPoly.one(YBE_VARS)}
    bit = 1 << (k - 1)
    out: dict = {}
    for (I, J, K, L), w in _recursive_table(k - 1, kind).items():
        shifted = w.substitute({_X: (1, (1, 0, 1))})
        for (i, j, kk, l), (f, shift) in _BRANCHES[kind].items():
            key = (I | (bit * i), J | (bit * j), K | (bit * kk), L | (bit * l))
            out[key] = (shifted if shift else w) * f
    return out


def _table_oracle(k: int, table: dict):
    def weight(I, J, K, L) -> LaurentPoly:
        return table.get(masks(k, I, J, K, L), LaurentPoly.zero(YBE_VARS))

    return weight


def l_recursive(k: int):
    """Face-weight oracle for k colors built from the tensor recursion."""
    return _table_oracle(k, _recursive_table(k, "L"))


def r_recursive(k: int):
    return _table_oracle(k, _recursive_table(k, "R"))


# -- both sides of the intertwining equation -----------------------------------


# (x, y, t) in one int, 8 bits apiece for x and y; a side's term multiplies
# three table weights, so every table exponent must fit three times over
_PACKING = _Packing(YBE_VARS, 8, signed=True)


def _entry_rows(k: int, pictures, terms) -> dict:
    """(I, J) -> [((K, L), weight)] over the labels whose colors each follow
    one of the single-color pictures, all of which weigh nonzero.  A weight
    is the tuple of (packed monomial, coefficient) pairs of the exponent
    terms ``terms(I, J, K, L)``."""
    outs: dict = {}
    for i, j, kk, l in pictures:
        outs.setdefault((i, j), []).append((kk, l))
    rows: dict = {}
    size = 1 << k
    for I in range(size):
        for J in range(size):
            per_color = [outs.get(((I >> i) & 1, (J >> i) & 1), ()) for i in range(k)]
            rows[(I, J)] = row = []
            for combo in product(*per_color):
                K = sum(kk << i for i, (kk, _) in enumerate(combo))
                L = sum(l << i for i, (_, l) in enumerate(combo))
                row.append(((K, L), tuple(_PACKING.encode(terms(I, J, K, L), 3).items())))
    return rows


@lru_cache(maxsize=14)
def _tables(k: int, starred: bool) -> tuple[dict, dict, dict]:
    """Entry rows of the x-line face, the y-line face and the crossing.
    Starred, the x-line face is gray and the crossing's x line carries
    1/(x t^(k-1))."""

    def face(y_line: bool, gray: bool):
        def terms(*labels) -> dict:
            xe, te = face_weight_exponents(*labels)  # admissible by picture
            xe, te = _gray(k, 1, xe, te) if gray else (xe, te)
            return {(0, xe, te) if y_line else (xe, 0, te): 1}

        return terms

    return (
        _entry_rows(k, _L_PICTURES, face(False, starred)),
        _entry_rows(k, _L_PICTURES, face(True, False)),
        _entry_rows(k, _R_PICTURES, lambda *labels: _crossing_terms(k, *labels, starred)),
    )


def _add_shifted(sides: dict, boundary, terms, shift: int, scale: int):
    """sides[boundary] += scale * m * terms, m the monomial of packed key
    ``shift``; zero terms and an emptied boundary are dropped in place."""
    side = sides.get(boundary)
    if side is None:
        sides[boundary] = {key + shift: c * scale for key, c in terms}
        return
    for key, c in terms:
        key += shift
        c = side.get(key, 0) + c * scale
        if c:
            side[key] = c
        else:
            del side[key]
    if not side:
        del sides[boundary]


def _gauche_block(lx, ly, rr, I1: int, I2: int, I3: int) -> dict:
    """The left side at incoming labels (I1, I2, I3): (J1, J2, J3) -> {packed
    monomial: coefficient}, with no zero coefficient and no empty boundary.  A
    face weight is one (key, coefficient) pair, shifting a crossing weight."""
    block: dict = {}
    for (K2, K1), r_terms in rr[(I2, I1)]:
        for (K3, J1), ((lkey, lc),) in lx[(I3, K1)]:
            rl = [(key + lkey, c * lc) for key, c in r_terms]
            for (J3, J2), ((ykey, yc),) in ly[(K3, K2)]:
                _add_shifted(block, (J1, J2, J3), rl, ykey, yc)
    return block


def _droite_block(lx, ly, rr, I1: int, I2: int, I3: int) -> dict:
    """The right side at the same incoming labels, in the same form."""
    block: dict = {}
    for (L3, L2), ((ykey, yc),) in ly[(I3, I2)]:
        for (J3, L1), ((lkey, lc),) in lx[(L3, I1)]:
            shift, scale = ykey + lkey, yc * lc
            for (J2, J1), r_terms in rr[(L2, L1)]:
                _add_shifted(block, (J1, J2, J3), r_terms, shift, scale)
    return block


@dataclass
class YbeReport:
    name: str
    k: int
    mode: str
    checked: int
    failed: int
    first_failure: dict | None = None
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failed == 0

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json_dict(self) -> dict:
        out = {
            "identity": self.name,
            "k": self.k,
            "mode": self.mode,
            "status": self.status,
            "checked": self.checked,
            "failed": self.failed,
        }
        if self.params:
            out["params"] = self.params
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out


def _sample_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Nonzero rationals with x != y and t outside {0, 1}."""
    while True:
        x = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        y = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        t = Fraction(rng.randint(2, 12), rng.randint(1, 12))
        if x != y and t not in (0, 1):
            return x, y, t


def _witness(k: int, boundary, gauche: str, droite: str) -> dict:
    return {
        "boundary": {
            name: list((boundary[idx] >> i) & 1 for i in range(k))
            for idx, name in enumerate(("I1", "I2", "I3", "J1", "J2", "J3"))
        },
        "gauche": gauche,
        "droite": droite,
    }


def _run_check(name: str, k: int, mode: str, seed: int, trials: int, starred: bool) -> YbeReport:
    if check_int(k, "k") < 0:
        raise ValueError(f"k must be at least 0, not {k}")
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "numeric" and check_int(trials, "trials") < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    # block by block in sorted boundary order, keeping only the (boundary,
    # gauche, droite) triples that differ
    tables = _tables(k, starred)
    differ = []
    for incoming in product(range(1 << k), repeat=3):
        gauche, droite = _gauche_block(*tables, *incoming), _droite_block(*tables, *incoming)
        if gauche != droite:
            differ += [
                ((*incoming, *J), gauche.get(J, {}), droite.get(J, {}))
                for J in sorted(gauche.keys() | droite.keys()) if gauche.get(J) != droite.get(J)
            ]
    checked = 1 << (6 * k)
    if mode == "symbolic":
        first = None
        if differ:
            key, g, d = differ[0]
            first = _witness(k, key, _PACKING.poly(g).to_text(), _PACKING.poly(d).to_text())
        return YbeReport(name, k, "symbolic", checked, len(differ), first)
    # Evaluation at a point with nonzero x, y and t is a ring homomorphism, so
    # sides that are equal symbolically are equal there: only the boundaries
    # in `differ` can fail at a point.
    rng = random.Random(seed)
    points = [_sample_point(rng) for _ in range(trials)]
    sides = [(key, _PACKING.poly(g), _PACKING.poly(d)) for key, g, d in differ]
    failed, first = 0, None
    for point in points:
        for key, g, d in sides:
            gv, dv = g.eval_rational(point), d.eval_rational(point)
            if gv != dv:
                failed += 1
                if first is None:
                    first = _witness(k, key, str(gv), str(dv))
                    first["point"] = {"x": str(point[0]), "y": str(point[1]), "t": str(point[2])}
    return YbeReport(
        name, k, "numeric", checked * trials, failed, first,
        params={"seed": seed, "trials": trials},
    )


def ybe_check(k: int, mode: str = "symbolic", seed: int = 1, trials: int = 3) -> YbeReport:
    """Verify the intertwining relation over every boundary condition."""
    return _run_check("ybe", k, mode, seed, trials, starred=False)


def lstar_ybe_check(k: int, mode: str = "symbolic", seed: int = 1, trials: int = 3) -> YbeReport:
    """Same with the gray face on the x line and spectral ratio y/xbar."""
    return _run_check("lstar-ybe", k, mode, seed, trials, starred=True)
