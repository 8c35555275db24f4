"""Verification drivers: each named identity reduced to exact polynomial equality.

``llt`` sits here, above both engines: it picks the tableau count or the
lattice partition function, or runs both and raises ``EngineMismatch`` when
they differ.  Every verifier returns an IdentityReport; FAIL always carries
the two offending polynomials.  Inputs are fixed or enumerated, never drawn.
Each single-shape identity's right side is a monomial times a polynomial,
that polynomial possibly at 1/t or 1/x: the monomial is an exponent shift
(``LaurentPoly.shifted``), and no driver multiplies two polynomials.
The Cauchy-type identities are checked after truncating both sides at a
total x-degree bound D, which is exact because each summand is homogeneous.
Their sides are int keys of one layout, ``_xy_packing``: x_1..x_n, y_1..y_n
in fields bounded by D, which no x- or y-exponent of a side exceeds, and t
unbounded on top, so a product of two monomials is one int sum.  The sides
are compared packed, from the tableau count to the verdict, and decoded to
polynomials only for a FAIL witness.  Each call walks its shape tuples as
tuples of int ids into one ``tableaux._ComponentTable`` of the components
it meets, whose memo of ``shapes._d_pair`` gives each d; engine equivalence
counts its tableau side through one table per n.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations_with_replacement, product
from operator import ge, index

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
)
from .tableaux import _ComponentTable, hl_modified, hl_transformed, llt_coinv, llt_inv


@dataclass
class IdentityReport:
    """One identity's verdict; it renders its own text and JSON forms."""

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

    def to_text(self) -> str:
        lines = [f"{self.status} {self.name} {json.dumps(self.params, sort_keys=True)}"]
        if witness := self.witness:
            lines.append(f"  context: {witness['context']}")
            lines += [f"  {s}: {json.dumps(witness[s], sort_keys=True)}" for s in ("lhs", "rhs")]
        return "\n".join(lines)


def _check_pairs(name: str, params: dict, pairs, details: dict | None = None,
                 decode=None) -> IdentityReport:
    """PASS iff every (context, lhs, rhs) pair is an exact equality; the two
    sides are polynomials, integers, or packed counts that
    ``decode(context, counts)`` turns into polynomials for a witness.  A
    context is a string, or a callable that builds it for a failing pair."""
    count = 0
    for context, lhs, rhs in pairs:
        count += 1
        if lhs != rhs:
            if callable(context):
                context = context()
            witness = {"context": context, "lhs": lhs, "rhs": rhs}
            for side in ("lhs", "rhs"):
                if isinstance(witness[side], dict):
                    witness[side] = decode(context, witness[side])
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
    rhs = G.invert_t().shifted((0,) * n + (m,))
    return _check_pairs(
        "inv-coinv",
        {"shape": shape.text(), "n": n, "m": m},
        [("t^m G(1/t)", L, rhs)],
    )


def _rearrangements(parts: tuple) -> list:
    """Each distinct rearrangement of a partition once, in ``permutations``' order."""
    level = [((), Counter(parts))]
    for _ in parts:
        level = [(head + (v,), left - Counter((v,))) for head, left in level for v in left]
    return [head for head, _ in level]


def verify_hl(mu, n: int, engine: str = "tableaux") -> IdentityReport:
    """Single-row tuples recover transformed Hall-Littlewood polynomials."""
    mu = check_partition(mu)
    if not mu:
        raise ValueError("mu must have at least one part")
    H = hl_transformed(mu, n)
    # one polynomial per distinct rearrangement; the reversed rows are one
    L = {beta: llt(tuple((p,) for p in beta), n, engine) for beta in _rearrangements(mu)}
    pairs = [("reversed rows", L[mu[::-1]], H)]
    for beta, lhs in L.items():
        pairs.append((f"rearrangement {beta}", lhs, H.shifted((0,) * n + (inv_stat(beta),))))
    return _check_pairs("hl", {"mu": list(mu), "n": n, "engine": engine}, pairs)


def verify_modified_hl(mu, n: int) -> IdentityReport:
    """Inversion polynomial of the row tuple = modified Hall-Littlewood."""
    mu = check_partition(mu)
    if not mu:
        raise ValueError("mu must have at least one part")
    rows = tuple((p,) for p in mu)
    lhs = llt_inv(SkewShapeTuple.straight(rows), n)
    rhs = hl_modified(mu, n)
    return _check_pairs("modified-hl", {"mu": list(mu), "n": n}, [("G vs Htilde", lhs, rhs)])


# -- box and complement dualities ------------------------------------------------


def verify_box_skew(lam, M: int, n: int, engine: str = "tableaux") -> IdentityReport:
    """Box-over-lam equals t^d(lam) times the complement tuple."""
    lam = check_box_tuple(lam, n, M)
    comp = _complement(lam, M - n)
    d, d_comp = _d_stat(lam), _d_stat(comp)
    # check_box_tuple has fitted lam to the box, so box/lam holds its checks
    lhs = llt(SkewShapeTuple._trusted(((M - n,) * n,) * len(lam), lam), n, engine)
    rhs = llt(comp, n, engine).shifted((0,) * n + (d,))
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
    rhs = inverted.shifted([len(lam) * (M - n)] * n + [dtilde])
    return _check_pairs(
        "complement",
        {"lam": [list(p) for p in lam], "M": M, "n": n, "engine": engine},
        [("lam vs complement at 1/x", lhs, rhs)],
        {"dtilde": dtilde},
    )


def _x_rho_power(n: int, k: int, extra_all: int = 0, textra: int = 0) -> list:
    """Exponents of (x^rho)^k (x_1 ... x_n)^extra_all t^textra, rho = (n - 1, ..., 1, 0)."""
    return [(n - i) * k + extra_all for i in range(1, n + 1)] + [textra]


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
    target = llt(lam, n, engine).shifted(_x_rho_power(n, k, textra=_binom2(n) * _binom2(k) + d))
    shift_t = -_binom2(n + 1) * _binom2(k)
    factor = _x_rho_power(n, k, extra_all=-n * k, textra=shift_t)
    pairs = []
    for M in Ms:
        zright, ztop = (gray_rows(partition_function(build_box_lattice(lam, M, n, right)), k, M)
                        for right in (True, False))
        pairs.append((f"right-exit gray row, M={M}", zright, target))
        pairs.append((f"top-exit vs right-exit, M={M}", zright, ztop.shifted(factor)))
    return _check_pairs(
        "lstar", {"lam": [list(p) for p in lam], "n": n, "M": Ms, "engine": engine}, pairs, {"d": d}
    )


# -- Cauchy identities ------------------------------------------------------------


def _xy_packing(n: int, D: int) -> _Packing:
    """The Cauchy drivers' key layout (see the module docstring)."""
    return _Packing(VarSet(nx=n, ny=n), D)


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


def _kernel_counts(xy: _Packing, k: int, D: int, start: dict | None = None,
                   degree: int = 0) -> dict:
    """``start`` times prod over i, j, m of 1/(1 - x_i y_j t^m) as counts of
    ``xy`` keys, cut at x-degree D (at most the layout's own bound); start
    holds counts of x-degree ``degree`` and y-degree 0, by default 1.

    ``graded[d]`` holds the running product's keys of x-degree degree + d.  Times
    1/(1 - u), u = x_i y_j t^m, it becomes Q with Q[d] = P[d] + u Q[d - 1]:
    only key shifts, and no term above D is ever formed.  The grades share
    no key and every coefficient is a positive count, so merging them gives
    the product's terms as they are.
    """
    n = xy.vars.nx
    graded = [{0: 1} if start is None else start] + [{} for _ in range(D - degree)]
    for x_at in xy.shifts[:n]:
        for y_at in xy.shifts[n:]:
            for m in range(k):
                step = (1 << x_at) + (1 << y_at) + (m << xy.top)
                for below, grade in zip(graded, graded[1:]):
                    for e, c in below.items():
                        e += step
                        grade[e] = grade.get(e, 0) + c
    return {e: c for grade in graded for e, c in grade.items()}


def cauchy_kernel_truncated(n: int, k: int, D: int) -> LaurentPoly:
    """prod over i, j, m of 1/(1 - x_i y_j t^m), truncated to x-degree <= D."""
    n, k, D = (check_int(value, name, 0) for value, name in ((n, "n"), (k, "k"), (D, "D")))
    xy = _xy_packing(n, D)
    return xy.poly(_kernel_counts(xy, k, D))


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


def _llt_counts(table: _ComponentTable, ids: tuple, engine: str = "tableaux") -> dict:
    """L of the table's components ``ids`` as counts of its keys in the x
    fields, the one seam of every L the Cauchy drivers take: the table's
    count, or ``llt``'s polynomial encoded (so "both" still raises
    EngineMismatch)."""
    if engine == "tableaux":
        return table.counts(ids)
    n = table.n   # every y exponent is 0
    shape = SkewShapeTuple._trusted(*zip(*map(table.comps.__getitem__, ids)))
    return table.packing.encode({e[:n] + (0,) * n + e[n:]: c
                                 for e, c in llt(shape, n, engine).terms.items()}, 1)


def _cauchy_terms(table: _ComponentTable, k: int, D: int, engine: str = "tableaux", mu=None):
    """(lam, lam/0's ids, d(lam), L_lam counts) for each lam of
    ``shape_tuples_bounded(k, n, D)`` (each lam containing ``mu`` when
    given): the Cauchy drivers' one loop, over tuples of the table's ids."""
    for lam in shape_tuples_bounded(k, table.n, D):
        if mu is None or all(map(ge, chain(*lam), chain(*mu))):
            ids = tuple(map(table.straight.__getitem__, lam))
            yield lam, ids, _d_stat(lam, table.d_pairs.__getitem__), _llt_counts(table, ids, engine)


def _check_cauchy_params(n: int, k: int, D: int) -> None:
    """The Cauchy drivers' one check, made before any work."""
    check_n(n)
    check_int(k, "k", 1)
    check_int(D, "D", 0)


def verify_cauchy(n: int, k: int, D: int, engine: str = "tableaux") -> IdentityReport:
    """Sum of t^d(lam) L_lam(X) L_lam(Y) against the product kernel."""
    _check_cauchy_params(n, k, D)
    table = _ComponentTable(xy := _xy_packing(n, D))
    lhs = _xy_sum(xy, [(d, P, P) for _, _, d, P in _cauchy_terms(table, k, D, engine)])
    return _check_pairs("cauchy", {"n": n, "k": k, "D": D, "engine": engine},
                        [("sum vs kernel", lhs, _kernel_counts(xy, k, D))],
                        decode=lambda context, counts: xy.poly(counts))


def verify_skew_cauchy(mu, n: int, k: int, D: int) -> IdentityReport:
    """Skew Cauchy identity; tuples not containing mu contribute nothing."""
    _check_cauchy_params(n, k, D)
    mu = check_box_tuple(mu, n)
    if len(mu) != k:
        raise ValueError(f"mu must have {k} components")
    size = sum(sum(p) for p in mu)
    if size > D:
        raise ValueError("need |mu| <= D")
    table = _ComponentTable(xy := _xy_packing(n, D))
    mu_ids = tuple(map(table.straight.__getitem__, mu))
    lhs = _xy_sum(xy, [(d, P, _llt_counts(table, table.skew(ids, mu_ids)))
                       for _, ids, d, P in _cauchy_terms(table, k, D, mu=mu)])
    shift = d_stat(mu) << xy.top
    base = {key + shift: c for key, c in _llt_counts(table, mu_ids).items()}
    y_fields = (1 << xy.top) - (1 << xy.top // 2)
    pairs = [
        ("skew sum vs kernel", lhs, _kernel_counts(xy, k, D, base, size)),
        ("y-degree-0 slice", {key: c for key, c in lhs.items() if not key & y_fields}, base),
    ]
    return _check_pairs(
        "skew-cauchy",
        {"mu": [list(p) for p in mu], "n": n, "k": k, "D": D},
        pairs,
        decode=lambda context, counts: xy.poly(counts),
    )


def verify_cauchy_rot(n: int, k: int, D: int) -> IdentityReport:
    """Rotated Cauchy identity plus the rotation/complement relation."""
    _check_cauchy_params(n, k, D)
    table = _ComponentTable(xy := _xy_packing(n, D))
    summands = []
    pairs = []
    for lam, ids, d, P in _cauchy_terms(table, k, D):
        R = _llt_counts(table, rot := table.rotation(lam, ids))
        summands.append((0, P, R))
        # the rotation's gammas are lam's complement in its box
        d_comp = _d_stat(tuple(table.comps[c][1] for c in rot), table.d_pairs.__getitem__)
        # the relation below shifts by d(comp), so its own check comes first;
        # each context is formatted only for a failing pair
        pairs.append((partial("d(comp)=d(lam) at {}".format, lam), d_comp, d))
        shift = d_comp << xy.top
        pairs.append((partial("rotation relation at {}".format, lam), R,
                      {key + shift: c for key, c in P.items()}))
    first = "rotated sum vs kernel"
    pairs.insert(0, (first, _xy_sum(xy, summands), _kernel_counts(xy, k, D)))
    return _check_pairs("cauchy-rot", {"n": n, "k": k, "D": D}, pairs, decode=lambda context, R: (
        xy.poly(R) if context == first    # the sum in x, y and t; a relation in x and t
        else LaurentPoly(VarSet(nx=n), {(*e[:n], e[-1]): c for e, c in xy.decode(R).items()})))


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
    cells = max(_FAMILY_COMPONENTS) * _FAMILY_MAX_ROWS * _FAMILY_MAX_PART   # bounds an x-exponent
    tables = [_ComponentTable(_Packing(VarSet(nx=n), cells)) for n in _FAMILY_N]
    pairs = ((f"{shape.text()}, n={table.n}",
              table.packing.poly(table.counts(tuple(map(table.ids.__getitem__,
                                                        zip(shape.beta, shape.gamma))))),
              partition_function(build_lattice(shape, table.n)))
             for shape in _family_tuples() for table in tables)
    params = {"components": list(_FAMILY_COMPONENTS), "max_part": _FAMILY_MAX_PART,
              "max_rows": _FAMILY_MAX_ROWS, "n": list(_FAMILY_N)}
    return _check_pairs("engine-equivalence", params, pairs)
