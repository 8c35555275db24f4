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

where d counts the colors above this one in type 1; the pattern (1,0,1,0) is
forbidden.  One picture table per kind holds each single-color weight's
terms (d = 0); ``ef_weight`` and the color recursion read it with its shift
flag.  One routine multiplies two term dicts, the second one's x read as
x t^d, and no polynomial is multiplied: the crossing expansion multiplies in
one color's factor at the d that one expression counts from the labels, and
the color recursion multiplies the new color's weight by the colors below,
which see x t (d = 1) or x (d = 0).  ``r_weight`` expands one crossing from
the top color down; the checks' tables grow every crossing's labels from the
top color down, so each label prefix is expanded once and its new color
reads d off the colors already placed.  The checkers cover every boundary one block of incoming
labels at a time.  Tables built once per check hold each weight packed
straight from the closed forms (`lattice`'s face exponents, the crossing
expansion, its x line barred when starred), each distinct monomial packed
once; the crossing's is x^k R, so every packed exponent is in [0, 2k], and
each side carries that one x^k.  One sparse contraction adds the left side
minus the right side of a block into one dict, keyed by packed monomial and
outgoing labels together, and the block passes iff every value is 0.  Only a
failing block is contracted again, one side at a time, to find and decode its
differing boundaries.  Numeric mode then evaluates those at exact rational
points, drawn only when some boundary differs: at a point with nonzero x, y
and t evaluation is a ring homomorphism, so equal sides have equal values, and
the report is the one that evaluating every boundary would give.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .algebra import LaurentPoly, VarSet, _Packing
from .lattice import _gray, face_weight_exponents, masks
from .shapes import _Lazy, check_int

YBE_VARS = VarSet(nx=1, ny=1)


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

# kind -> picture -> (its weight, whether the smaller colors see x -> xt): on
# faces E keeps x and F shifts it, on crossings Etilde shifts x and Ftilde
# keeps it.
_BRANCHES = {
    kind: {pic: (w, (i == 0) == (kind == "R"))
           for i, (pic, w) in enumerate(pictures.items())}
    for kind, pictures in (("L", _L_PICTURES), ("R", _R_PICTURES))
}


def _type1_above(i: int, I: int, J: int, K: int, L: int) -> int:
    """d of color i: the type-1 colors above it, counted from the labels
    (labels that name only the colors placed so far give the same count)."""
    return ((J & L & ~(I | K)) >> i + 1).bit_count()


def _times_color(terms: dict, weight: dict, d: int) -> dict:
    """{(x, y, t) exponents: coefficient} of terms times weight with weight's
    x read as x t^d, both as {(x, y, t) exponents: coefficient}."""
    expanded: dict = {}
    for (x, y, t), f in weight.items():
        for (a, b, c), coeff in terms.items():
            exps = (a + x, b + y, c + t + x * d)
            expanded[exps] = expanded.get(exps, 0) + coeff * f
    return expanded


def r_weight(k: int, I, J, K, L) -> LaurentPoly:
    """Closed-form crossing weight, the product of the colors' factors
    expanded from the top color down; 0 when some color breaks the type
    table.  A color's factor is its picture's weight with x read as x t^d."""
    I, J, K, L = masks(k, I, J, K, L)
    terms = {(0, 0, 0): 1}
    for i in reversed(range(k)):
        pic = ((I >> i) & 1, (J >> i) & 1, (K >> i) & 1, (L >> i) & 1)
        if pic not in _BRANCHES["R"]:
            return LaurentPoly(YBE_VARS, {})
        terms = _times_color(terms, _BRANCHES["R"][pic][0], _type1_above(i, I, J, K, L))
    return LaurentPoly(YBE_VARS, terms)


def _crossing_rows(k: int) -> dict:
    """(I, J) -> [(K, L, terms)] over every crossing that no color breaks,
    terms those `r_weight` expands, built from the top color down: each label
    prefix is expanded once, its new color reading d off the colors above."""
    rows = {(0, 0): [(0, 0, {(0, 0, 0): 1})]}
    for i in reversed(range(k)):
        bit, grown = 1 << i, {}
        for (I, J), row in rows.items():
            for K, L, terms in row:
                d = _type1_above(i, I, J, K, L)
                for (a, b, c, e), (weight, _) in _BRANCHES["R"].items():
                    grown.setdefault((I | a * bit, J | b * bit), []).append(
                        (K | c * bit, L | e * bit, _times_color(terms, weight, d)))
        rows = grown
    return rows


# -- the E/F tables and the color recursion ------------------------------------

_KINDS = {"E": "L", "F": "L", "Etilde": "R", "Ftilde": "R"}


def ef_weight(kind: str, picture) -> LaurentPoly:
    """Tabulated single-color weight for kind in E, F, Etilde, Ftilde."""
    pic = tuple(picture)
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    branches = _BRANCHES[_KINDS[kind]]
    if pic not in branches:
        what = "face" if _KINDS[kind] == "L" else "crossing"
        raise ValueError(f"unknown single-color {what} picture {pic}")
    weight, shift = branches[pic]
    return LaurentPoly(YBE_VARS, weight if shift == (kind in ("F", "Etilde")) else {})


def _recursive_table(k: int, kind: str) -> dict:
    """The terms of every nonzero k-color face ("L") or crossing ("R") weight,
    grown from the k = 0 table a color per pass: the new color follows one
    single-color picture and the colors below it see x or xt."""
    table = {(0, 0, 0, 0): {(0, 0, 0): 1}}
    for bit in (1 << color for color in range(k)):
        table, below = {}, table
        for (I, J, K, L), w in below.items():
            for (i, j, kk, l), (f, shift) in _BRANCHES[kind].items():
                key = (I | (bit * i), J | (bit * j), K | (bit * kk), L | (bit * l))
                table[key] = _times_color(f, w, 1 if shift else 0)
    return table


def _table_oracle(k: int, table: dict):
    def weight(I, J, K, L) -> LaurentPoly:
        return LaurentPoly(YBE_VARS, table.get(masks(k, I, J, K, L)))

    return weight


def l_recursive(k: int):
    """Face-weight oracle for k colors built from the tensor recursion."""
    return _table_oracle(k, _recursive_table(k, "L"))


def r_recursive(k: int):
    return _table_oracle(k, _recursive_table(k, "R"))


# -- both sides of the intertwining equation -----------------------------------


def _packing(k: int) -> _Packing:
    # three table weights, each x or y exponent in [0, 2k], as encode(..., 3)
    # proves per entry; a side's fields reach only 2k (measured for k <= 3)
    return _Packing(YBE_VARS, 6 * k)


def _unpack(k: int, counts) -> LaurentPoly:
    """Packed terms that carry the crossing table's x^k as a polynomial: x's
    exponent is lowered after decoding, as a key lowered would borrow from y."""
    return _packing(k).poly(counts)._map_exponents(lambda e: (e[0] - k, e[1], e[2]))


def _label_rows(k: int) -> dict:
    """(I, J) -> [(K, L)] over the face labels whose colors each follow one
    of the face pictures, built one color at a time; an (I, J) that no labels
    follow is absent."""
    outs: dict = {}
    for i, j, kk, l in _BRANCHES["L"]:
        outs.setdefault((i, j), []).append((kk, l))
    rows = {(0, 0): [(0, 0)]}
    for bit in (1 << i for i in range(k)):
        rows = {(I | i * bit, J | j * bit): [(K | kk * bit, L | l * bit)
                                             for K, L in row for kk, l in pics]
                for (I, J), row in rows.items() for (i, j), pics in outs.items()}
    return rows


def _tables(k: int, starred: bool) -> tuple:
    """The tables `_contract` reads, in the order the sides read them: the
    gauche's crossing, x-line and y-line face, then the droite's y-line and
    x-line face and crossing.  Row [I][J] of each is a list of entries (empty
    rows shared), each distinct monomial packed once per call and each entry
    its key plus the entry's label shifts: the crossing times x^k; starred,
    the x-line face gray and the crossing's x line barred.  Gauche is R(I2,I1; K2,K1) Lx(I3,K1; K3,J1) Ly(K3,K2; J3,J2),
    droite Ly(I3,I2; L3,L2) Lx(L3,I1; J3,L1) R(L2,L1; J2,J1), and each
    side's outgoing labels are folded into its keys: m 2^(3k) + J1 + J2 2^k
    + J3 2^(2k), m the packed monomial (a bijection, negative m too).  The
    crossing's terms carry the droite's J1 + J2 2^k, which the gauche's
    faces take back (K1 + K2 2^k there), so both sides share those terms.  A
    face weight is one monomial with coefficient 1: its key."""
    encode, s, size = _packing(k).encode, 3 * k, 1 << k
    # {(x, y, t) exponents: packed key}, shifted past the folded labels
    packed = _Lazy(lambda exps: next(iter(encode({exps: 1}, 3))) << s)
    rg, xg, yg, yd, xd, rd = ([[()] * size for _ in range(size)] for _ in range(6))
    for (I, J), row in _label_rows(k).items():
        xg[I][J], yg[I][J], yd[I][J], xd[I][J] = gx, gy, dy, dx = [], [], [], []
        for K, L in row:
            xe, te = face_weight_exponents(I, J, K, L)  # admissible by picture
            m = packed[0, xe, te]
            gy.append(m + (L << k) + (K << 2 * k) - (J << k))
            dy.append((K, L, m))
            xe, te = _gray(k, 1, xe, te) if starred else (xe, te)
            m = packed[xe, 0, te]
            gx.append((K, m + L - J))
            dx.append((L, m + (K << 2 * k)))
    rows = _crossing_rows(k)
    while rows:  # each row's expanded terms are dropped once it is packed
        (I, J), row = rows.popitem()
        rg[I][J], rd[I][J] = gr, dr = [], []
        for K, L, crossing in row:
            terms = []
            for (x, y, t), c in crossing.items():
                x, t = _gray(k, 0, x, t) if starred else (x, t)  # the x line barred
                terms.append((packed[x + k, y, t] + L + (K << k), c))
            gr.append((K, L, terms))
            dr += terms
    return rg, xg, yg, yd, xd, rd


def _contract(tables, I1: int, I2: int, I3: int, gauche: int = 1, droite: int = -1) -> dict:
    """gauche times the left side plus droite times the right side at incoming
    labels (I1, I2, I3), {folded key: coefficient} with zero values kept:
    with the default signs the block passes iff every value is 0."""
    rg, xg, yg, yd, xd, rd = tables
    block: dict = {}
    get = block.get
    if gauche:
        for K2, K1, r_terms in rg[I2][I1]:
            for K3, lkey in xg[I3][K1]:
                ys = yg[K3][K2]
                for shift, c in r_terms:
                    shift, c = shift + lkey, c * gauche
                    for key in ys:
                        key += shift
                        block[key] = get(key, 0) + c
    if droite:
        for L3, L2, ykey in yd[I3][I2]:
            for L1, lkey in xd[L3][I1]:
                shift = ykey + lkey
                for key, c in rd[L2][L1]:
                    key += shift
                    block[key] = get(key, 0) + c * droite
    return block


def _differing(k: int, tables, incoming) -> list:
    """The (boundary, gauche, droite) triples of one failing block whose
    sides differ, decoded, in sorted boundary order: each side is the
    contraction again with the other side's sign 0, split by J."""
    low, gauche, droite = (1 << k) - 1, {}, {}
    for side, sign, signs in ((gauche, 1, {"droite": 0}), (droite, -1, {"gauche": 0})):
        for key, c in _contract(tables, *incoming, **signs).items():
            if c:
                J = (key & low, key >> k & low, key >> 2 * k & low)
                side.setdefault(J, {})[key >> 3 * k] = sign * c
    return [((*incoming, *J), _unpack(k, gauche.get(J, {})), _unpack(k, droite.get(J, {})))
            for J in sorted(gauche.keys() | droite.keys()) if gauche.get(J) != droite.get(J)]


@dataclass
class YbeReport:
    """One YBE check's verdict; it renders its own text and JSON forms."""

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

    def to_text(self) -> str:
        line = f"{self.status} {self.name} k={self.k} mode={self.mode} checked={self.checked}"
        if self.failed:
            line += f" failed={self.failed}"
        if self.first_failure:
            line += f"\n  first failure: {json.dumps(self.first_failure, sort_keys=True)}"
        return line


def _sample_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Nonzero rationals with x != y and t outside {0, 1}."""
    while True:
        x = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        y = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        t = Fraction(rng.randint(2, 12), rng.randint(1, 12))
        if x != y and t not in (0, 1):
            return x, y, t


def _witness(k: int, boundary, gauche: str, droite: str) -> dict:
    names = ("I1", "I2", "I3", "J1", "J2", "J3")
    return {"boundary": {name: [(label >> i) & 1 for i in range(k)]
                         for name, label in zip(names, boundary)},
            "gauche": gauche, "droite": droite}


def _run_check(name: str, k: int, mode: str, seed: int, trials: int, starred: bool) -> YbeReport:
    check_int(k, "k", 0)
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "numeric":
        check_int(trials, "trials", 1)
    # block by block in sorted boundary order, the triples that differ
    tables = _tables(k, starred)
    differ = [triple for incoming in product(range(1 << k), repeat=3)
              if any(_contract(tables, *incoming).values())
              for triple in _differing(k, tables, incoming)]
    checked = 1 << (6 * k)
    if mode == "symbolic":
        first = None
        if differ:
            key, g, d = differ[0]
            first = _witness(k, key, g.to_text(), d.to_text())
        return YbeReport(name, k, "symbolic", checked, len(differ), first)
    # Evaluation at a point with nonzero x, y and t is a ring homomorphism, so
    # sides that are equal symbolically are equal there: only the boundaries
    # in `differ` can fail at a point, and with none no point is drawn.
    rng = random.Random(seed)
    points = [_sample_point(rng) for _ in range(trials)] if differ else []
    failed, first = 0, None
    for point in points:
        for key, g, d in differ:
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
