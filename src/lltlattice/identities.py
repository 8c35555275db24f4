"""Verification drivers: each named identity reduced to exact polynomial equality.

``llt`` sits here, above both engines: it picks the tableau count or the
lattice partition function, or runs both and raises ``EngineMismatch`` when
they differ.  Every verifier returns an IdentityReport; FAIL always carries
the two offending polynomials.  Inputs are fixed or enumerated, never drawn.
The Cauchy-type identities are checked after truncating both sides at a
total x-degree bound D, which is exact because each summand is homogeneous.
Their sides are int keys of one layout, ``_xy_packing``: x_1..x_n, y_1..y_n
at ``max(D, 1).bit_length()`` bits each, t unbounded on top.  No x- or
y-exponent of a side exceeds D, so no field carries and a product of two
monomials is one int sum; each side is decoded to a polynomial once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, permutations, product
from operator import ge, index, lshift

from .algebra import LaurentPoly, VarSet, _Packing
from .lattice import build_box_lattice, build_lattice, gray_rows, partition_function
from .shapes import (
    ShapeTuple,
    SkewShapeTuple,
    _binom2,
    _complement,
    _d_stat,
    _dtilde_stat,
    check_box_tuple,
    check_int,
    check_n,
    check_partition,
    d_stat,
    inv_stat,
    m_bruteforce,
    rotate,
)
from .tableaux import _coinv_counts, hl_modified, hl_transformed, llt_coinv, llt_inv


@dataclass
class IdentityReport:
    name: str
    params: dict
    status: str
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json_dict(self) -> dict:
        out = {"identity": self.name, "params": self.params, "status": self.status}
        if self.details:
            out["details"] = self.details
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _check_pairs(name: str, params: dict, pairs, details: dict | None = None,
                 decode=None) -> IdentityReport:
    """PASS iff every (context, lhs, rhs) pair is an exact equality; the two
    sides are polynomials, integers, or packed counts that ``decode`` turns
    into polynomials for a witness."""
    count = 0
    for context, lhs, rhs in pairs:
        count += 1
        if lhs != rhs:
            witness = {"context": context, "lhs": lhs, "rhs": rhs}
            for side in ("lhs", "rhs"):
                if isinstance(witness[side], dict):
                    witness[side] = decode(witness[side])
                if isinstance(witness[side], LaurentPoly):
                    witness[side] = witness[side].to_json_dict()
            return IdentityReport(name, params, "FAIL", witness, details or {})
    det = dict(details or {})
    det["equalities_checked"] = count
    return IdentityReport(name, params, "PASS", None, det)


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


def llt(shape: SkewShapeTuple | ShapeTuple, n: int, engine: str = "tableaux") -> LaurentPoly:
    """Coinversion LLT polynomial by the chosen engine.

    engine: "tableaux", "lattice", or "both" (computes both and insists they
    agree before returning).
    """
    shape = SkewShapeTuple.straight(shape)
    if engine == "tableaux":
        return llt_coinv(shape, n)
    if engine == "lattice":
        return partition_function(build_lattice(shape, n))
    if engine == "both":
        a = llt_coinv(shape, n)
        b = partition_function(build_lattice(shape, n))
        if a != b:
            raise EngineMismatch(shape, n, a, b)
        return a
    raise ValueError(f"unknown engine {engine!r}")


# -- single-shape identities ----------------------------------------------------


def verify_symmetry(shape, n: int, engine: str = "tableaux") -> IdentityReport:
    """The LLT polynomial is invariant under adjacent x-transpositions."""
    shape = SkewShapeTuple.straight(shape)
    P = llt(shape, n, engine)
    pairs = []
    for i in range(1, n):
        swapped = P.swap_vars(P.vars.x_index(i), P.vars.x_index(i + 1))
        pairs.append((f"swap x{i} <-> x{i + 1}", swapped, P))
    return _check_pairs(
        "symmetry", {"shape": shape.text(), "n": n, "engine": engine}, pairs
    )


def verify_inv_coinv(shape, n: int) -> IdentityReport:
    """Coinversion polynomial = t^m (inversion polynomial at 1/t)."""
    shape = SkewShapeTuple.straight(shape)
    L = llt_coinv(shape, n)
    G = llt_inv(shape, n)
    m = m_bruteforce(shape)
    rhs = LaurentPoly.t(L.vars, m) * G.invert_t()
    return _check_pairs(
        "inv-coinv",
        {"shape": shape.text(), "n": n, "m": m},
        [("t^m G(1/t)", L, rhs)],
    )


def verify_hl(mu, n: int, engine: str = "tableaux") -> IdentityReport:
    """Single-row tuples recover transformed Hall-Littlewood polynomials."""
    mu = check_partition(mu)
    H = hl_transformed(mu, n)
    # one polynomial per distinct rearrangement; the reversed rows are one
    L = {
        beta: llt(tuple((p,) for p in beta), n, engine)
        for beta in dict.fromkeys(permutations(mu))
    }
    pairs = [("reversed rows", L[mu[::-1]], H)]
    for beta, lhs in L.items():
        rhs = LaurentPoly.t(H.vars, inv_stat(beta)) * H
        pairs.append((f"rearrangement {beta}", lhs, rhs))
    return _check_pairs("hl", {"mu": list(mu), "n": n, "engine": engine}, pairs)


def verify_modified_hl(mu, n: int) -> IdentityReport:
    """Inversion polynomial of the row tuple = modified Hall-Littlewood."""
    mu = check_partition(mu)
    rows = tuple((p,) for p in mu)
    lhs = llt_inv(SkewShapeTuple.straight(rows), n)
    rhs = hl_modified(mu, n)
    return _check_pairs("modified-hl", {"mu": list(mu), "n": n}, [("G vs Htilde", lhs, rhs)])


# -- box and complement dualities ------------------------------------------------


def _box_skew_shape(lam: ShapeTuple, M: int, n: int) -> SkewShapeTuple:
    width = M - n
    box = tuple((width,) * n for _ in lam)
    return SkewShapeTuple(box, lam)


def verify_box_skew(lam, M: int, n: int, engine: str = "tableaux") -> IdentityReport:
    """Box-over-lam equals t^d(lam) times the complement tuple."""
    lam = check_box_tuple(lam, n, M)
    comp = _complement(lam, M - n)
    d, d_comp = _d_stat(lam), _d_stat(comp)
    lhs = llt(_box_skew_shape(lam, M, n), n, engine)
    rhs = LaurentPoly.t(lhs.vars, d) * llt(comp, n, engine)
    report = _check_pairs(
        "box-skew",
        {"lam": [list(p) for p in lam], "M": M, "n": n, "engine": engine},
        [("box/lam vs complement", lhs, rhs)],
        {"d": d, "d_complement": d_comp},
    )
    if report.passed and d_comp != d:
        report.status = "FAIL"
        report.witness = {"context": "d(complement) != d(lam)", "lhs": d_comp, "rhs": d}
    return report


def verify_complement(lam, M: int, n: int, engine: str = "tableaux") -> IdentityReport:
    """lam equals the box monomial times t^dtilde times complement at 1/x."""
    lam = check_box_tuple(lam, n, M)
    dtilde = _dtilde_stat(lam, M)
    lhs = llt(lam, n, engine)
    inverted = llt(_complement(lam, M - n), n, engine).invert_x()
    exps = [len(lam) * (M - n)] * n + [dtilde]
    rhs = LaurentPoly.monomial(lhs.vars, 1, exps) * inverted
    return _check_pairs(
        "complement",
        {"lam": [list(p) for p in lam], "M": M, "n": n, "engine": engine},
        [("lam vs complement at 1/x", lhs, rhs)],
        {"dtilde": dtilde},
    )


def _x_rho_power(vars: VarSet, n: int, k: int, extra_all: int = 0, textra: int = 0) -> LaurentPoly:
    exps = [(n - i) * k + extra_all for i in range(1, n + 1)] + [textra]
    return LaurentPoly.monomial(vars, 1, exps)


def verify_lstar(lam, n: int, Ms, engine: str = "tableaux") -> IdentityReport:
    """Gray-row evaluation is M-independent and matches the plain polynomial.

    For every M: the right-exit gray lattice equals
    (x^rho)^k t^(C(n,2)C(k,2)+d(lam)) L_lam, and differs from the top-exit
    gray lattice (box top boundary) by the displayed monomial.
    """
    try:
        Ms = sorted(set(map(index, Ms)))
    except TypeError:
        raise ValueError(f"every M must be an integer, not {Ms!r}") from None
    if not Ms:
        raise ValueError("the M list must hold at least one M")
    lam = check_box_tuple(lam, n, Ms[0])   # what fits the narrowest box fits all
    k = len(lam)
    d = _d_stat(lam)
    base = llt(lam, n, engine)
    vars = base.vars
    target = _x_rho_power(vars, n, k, textra=_binom2(n) * _binom2(k) + d) * base
    shift_t = -_binom2(n + 1) * _binom2(k)
    factor = _x_rho_power(vars, n, k, extra_all=-n * k, textra=shift_t)
    pairs = []
    for M in Ms:
        zright, ztop = (gray_rows(partition_function(build_box_lattice(lam, M, n, right)), k, M)
                        for right in (True, False))
        pairs.append((f"right-exit gray row, M={M}", zright, target))
        pairs.append((f"top-exit vs right-exit, M={M}", zright, ztop * factor))
    return _check_pairs(
        "lstar", {"lam": [list(p) for p in lam], "n": n, "M": Ms, "engine": engine}, pairs, {"d": d}
    )


# -- Cauchy identities ------------------------------------------------------------


def _xy_packing(n: int, D: int) -> _Packing:
    """The Cauchy drivers' key layout (see the module docstring)."""
    return _Packing(VarSet(nx=n, ny=n), max(D, 1).bit_length())


def _llt_counts(shape: SkewShapeTuple, xy: _Packing, engine: str = "tableaux") -> dict:
    """L_shape as counts of ``xy`` keys in the x fields: the tableau engine's own, or
    ``llt``'s polynomial encoded (so "both" still raises EngineMismatch)."""
    if engine == "tableaux":
        return _coinv_counts(shape, xy)
    return {sum(map(lshift, e[:-1], xy.shifts)) + (e[-1] << xy.top): c
            for e, c in llt(shape, xy.vars.nx, engine).terms.items()}


def _xy_sum(xy: _Packing, summands) -> dict:
    """Sum of t^a P(X) Q(Y) over ``(a, P, Q)``, P and Q counted by ``_llt_counts``;
    a Q key moves to the y fields by adding its x fields times 2^(n w) - 1."""
    top = xy.top
    xmask = (1 << top // 2) - 1   # the x fields, n w bits
    acc: defaultdict[int, int] = defaultdict(int)
    for a, P, Q in summands:
        Q = [(key + (key & xmask) * xmask + (a << top), c) for key, c in Q.items()]
        for kx, cx in P.items():
            for ky, cy in Q:
                acc[kx + ky] += cx * cy
    return acc


def cauchy_kernel_truncated(n: int, k: int, D: int) -> LaurentPoly:
    """prod over i, j, m of 1/(1 - x_i y_j t^m), truncated to x-degree <= D.

    ``graded[d]`` holds the running product's keys of x-degree d.  Times
    1/(1 - u), u = x_i y_j t^m, it becomes Q with Q[d] = P[d] + u Q[d - 1]:
    only key shifts, and no term above D is ever formed.  The grades share
    no key and every coefficient is a positive count, so merging them gives
    the product's terms as they are.
    """
    n, k, D = (check_int(value, name) for value, name in ((n, "n"), (k, "k"), (D, "D")))
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    xy = _xy_packing(n, D)
    graded = [{0: 1}] + [{} for _ in range(D)]
    for x_at in xy.shifts[:n]:
        for y_at in xy.shifts[n:]:
            for m in range(k):
                step = (1 << x_at) + (1 << y_at) + (m << xy.top)
                for below, grade in zip(graded, graded[1:]):
                    for e, c in below.items():
                        e += step
                        grade[e] = grade.get(e, 0) + c
    return xy.poly({e: c for grade in graded for e, c in grade.items()})


def partitions_fixed_length(n: int, max_size: int):
    """All partitions with exactly n declared parts and size <= max_size."""
    return [
        p for p in combinations_with_replacement(range(max_size, -1, -1), n)
        if sum(p) <= max_size
    ]


def shape_tuples_bounded(k: int, n: int, D: int):
    """k-tuples of n-part partitions with total size <= D, ordered as the
    product of ``partitions_fixed_length(n, D)`` with itself."""
    singles = [(p, sum(p)) for p in partitions_fixed_length(n, D)]
    sized: list[tuple[ShapeTuple, int]] = [((), 0)]
    for _ in range(k):  # extend each tuple by one component, keeping its size
        sized = [
            (lam + (p,), size + s) for lam, size in sized for p, s in singles if size + s <= D
        ]
    return [lam for lam, _ in sized]


def _cauchy_terms(xy: _Packing, k: int, D: int, engine: str = "tableaux", mu=None):
    """(lam, lam/0, L_lam counts) for each lam of ``shape_tuples_bounded(k, n, D)``
    (each lam containing ``mu`` when given): the Cauchy drivers' one loop.
    Each lam/0 is built once, unchecked, as every such lam is valid."""
    zero = ((0,) * xy.vars.nx,) * k
    for lam in shape_tuples_bounded(k, xy.vars.nx, D):
        if mu is None or all(map(ge, chain(*lam), chain(*mu))):
            shape = SkewShapeTuple._trusted(lam, zero)
            yield lam, shape, _llt_counts(shape, xy, engine)


def _check_cauchy_params(n: int, k: int, D: int) -> None:
    """The Cauchy drivers' one check, made before any work."""
    check_n(n)
    for name, value, low in (("k", k, 1), ("D", D, 0)):
        if check_int(value, name) < low:
            raise ValueError(f"{name} must be at least {low}")


def verify_cauchy(n: int, k: int, D: int, engine: str = "tableaux") -> IdentityReport:
    """Sum of t^d(lam) L_lam(X) L_lam(Y) against the product kernel."""
    _check_cauchy_params(n, k, D)
    xy = _xy_packing(n, D)
    lhs = _xy_sum(xy, [(_d_stat(lam), P, P) for lam, _, P in _cauchy_terms(xy, k, D, engine)])
    rhs = cauchy_kernel_truncated(n, k, D)
    return _check_pairs(
        "cauchy", {"n": n, "k": k, "D": D, "engine": engine}, [("sum vs kernel", xy.poly(lhs), rhs)]
    )


def verify_skew_cauchy(mu, n: int, k: int, D: int) -> IdentityReport:
    """Skew Cauchy identity; tuples not containing mu contribute nothing."""
    _check_cauchy_params(n, k, D)
    mu = check_box_tuple(mu, n)
    if len(mu) != k:
        raise ValueError(f"mu must have {k} components")
    size = sum(sum(p) for p in mu)
    if size > D:
        raise ValueError("need |mu| <= D")
    xy = _xy_packing(n, D)
    lhs = xy.poly(_xy_sum(xy, [
        (_d_stat(lam), P, _llt_counts(SkewShapeTuple._trusted(lam, mu), xy))
        for lam, _, P in _cauchy_terms(xy, k, D, mu=mu)
    ]))
    L_mu = _llt_counts(SkewShapeTuple.straight(mu), xy)
    base = xy.poly(_xy_sum(xy, [(d_stat(mu), L_mu, {0: 1})]))
    # base is homogeneous of x-degree |mu|: only kernel grades up to D - |mu| survive
    rhs = base * cauchy_kernel_truncated(n, k, D - size)
    pairs = [
        ("skew sum vs kernel", lhs, rhs),
        ("y-degree-0 slice", lhs.truncate_y(0), base),
    ]
    return _check_pairs(
        "skew-cauchy",
        {"mu": [list(p) for p in mu], "n": n, "k": k, "D": D},
        pairs,
    )


def verify_cauchy_rot(n: int, k: int, D: int) -> IdentityReport:
    """Rotated Cauchy identity plus the rotation/complement relation."""
    _check_cauchy_params(n, k, D)
    xy = _xy_packing(n, D)
    rhs = cauchy_kernel_truncated(n, k, D)
    summands = []
    pairs = []
    for lam, shape, P in _cauchy_terms(xy, k, D):
        R = _llt_counts(rotate(shape), xy)
        summands.append((0, P, R))
        width = max((p[0] for p in lam if p), default=0)
        d_comp = _d_stat(_complement(lam, width))
        # the relation below shifts by d(comp), so its own check comes first
        pairs.append((f"d(comp)=d(lam) at {lam}", d_comp, _d_stat(lam)))
        shift = d_comp << xy.top
        pairs.append((f"rotation relation at {lam}", R, {key + shift: c for key, c in P.items()}))
    pairs.insert(0, ("rotated sum vs kernel", xy.poly(_xy_sum(xy, summands)), rhs))
    return _check_pairs("cauchy-rot", {"n": n, "k": k, "D": D}, pairs, decode=lambda R: LaurentPoly(
        VarSet(nx=n), {(*e[:n], e[-1]): c for e, c in xy.decode(R).items()}))  # in x and t


# -- engine equivalence ------------------------------------------------------------

# The family ``verify_engine_equivalence`` checks: every tuple of 1 or 2 skew
# shapes beta/gamma, each with 1 or 2 declared rows and parts <= 2, at
# n = 1, 2, 3 (26 shapes, 702 tuples, 2,106 equalities).
_FAMILY_COMPONENTS = (1, 2)
_FAMILY_MAX_ROWS = 2
_FAMILY_MAX_PART = 2
_FAMILY_N = (1, 2, 3)


def _family_tuples():
    """The family's skew tuples, each part list as in ``partitions_fixed_length``."""
    singles = []
    for rows in range(1, _FAMILY_MAX_ROWS + 1):
        parts = combinations_with_replacement(range(_FAMILY_MAX_PART, -1, -1), rows)
        singles += [(b, g) for b, g in product(parts, repeat=2) if all(map(ge, b, g))]
    for k in _FAMILY_COMPONENTS:
        for combo in product(singles, repeat=k):
            yield SkewShapeTuple._trusted(*zip(*combo))


def verify_engine_equivalence() -> IdentityReport:
    """Tableau and lattice engines agree on every tuple of the fixed family."""
    pairs = ((f"{shape.text()}, n={n}", llt_coinv(shape, n),
              partition_function(build_lattice(shape, n)))
             for shape in _family_tuples() for n in _FAMILY_N)
    params = {"components": list(_FAMILY_COMPONENTS), "max_part": _FAMILY_MAX_PART,
              "max_rows": _FAMILY_MAX_ROWS, "n": list(_FAMILY_N)}
    return _check_pairs("engine-equivalence", params, pairs)
