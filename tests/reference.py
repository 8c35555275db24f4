"""Definition-level references that the tests check the package against.

``triples`` lists the triples of a skew tuple as records, straight from the
definition, and ``coinv`` and ``inv_triples`` count one tableau tuple's
coinversion and inversion triples over them; the package itself reads its
triples as flat positions from ``shapes._pair_triples``, and
``coinv_table`` counts such positions' coinversions for each pair of
fillings of two components, one entry at a time.  ``l_weight`` and
``lstar_weight`` are single plain and gray face weights as polynomials, and
``ybe_gauche`` and ``ybe_droite`` are one boundary's two sides of the
Yang-Baxter equation, cut out of the signed block sum that ``ybe_check``
contracts, with the other side's sign 0; ``split`` reads such a block's
folded keys one at a time.
``decode`` unpacks a ``_Packing``'s keys one key at a time.
``configs`` lists a lattice's configurations as their levels, by a recursion
over the rows that takes each row step's extensions in order.
``minus`` is p - q for expected values, which the package's polynomials,
adding and multiplying only, do not spell; ``one``, ``variable`` and ``t``
build the polynomials that the tests multiply, which the package, shifting
exponents instead, does not build.
``d_stat`` is the rotation offset d(lam) as one loop over every pair of
components and every pair of rows, where the package sums cached pair counts.
``skew_cauchy_rhs`` is skew Cauchy's right side t^d(mu) L_mu(X) times the
kernel as a double loop over the two factors' keys, where the package grows
the kernel from t^d(mu) L_mu(X) itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.identities import _kernel_counts, _xy_packing, _xy_sum
from lltlattice.lattice import _row_transitions, face_weight_exponents, gray_rows, masks
from lltlattice.shapes import SkewShapeTuple
from lltlattice.tableaux import INF, TableauTuple, _coinv_counts
from lltlattice.yangbaxter import _contract, _tables, _unpack


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


def coinv_table(fa, fb, trips, n: int, unit: int) -> list[list[int]]:
    """``unit`` times C_ab, entry by entry: entry (i, j) counts the triples
    (pos_v, pos_u, pos_w) whose entries lo <= fa[i][pos_v] <= hi, with lo
    and hi read from fb[j] (1 and n where u or w is outside, at -1)."""
    table = []
    for f_a in fa:
        row = []
        for f_b in fb:
            count = 0
            for pos_v, pos_u, pos_w in trips:
                lo = f_b[pos_u] if pos_u >= 0 else 1
                hi = f_b[pos_w] if pos_w >= 0 else n
                if lo <= f_a[pos_v] <= hi:
                    count += 1
            row.append(unit * count)
        table.append(row)
    return table


def d_stat(lam) -> int:
    """d(lam) of a box tuple: C(n,2) C(k,2) less the (a < b, i, j) with
    lam_b[i] - i < lam_a[j] - j."""
    k, n = len(lam), len(lam[0])
    count = 0
    for a in range(k):
        for b in range(a + 1, k):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if lam[b][i - 1] - i < lam[a][j - 1] - j:
                        count += 1
    return n * (n - 1) // 2 * (k * (k - 1) // 2) - count


def skew_cauchy_rhs(mu, n: int, k: int, D: int) -> dict:
    """t^d(mu) L_mu(X) times the Cauchy kernel, cut at x-degree D, as counts
    of ``_xy_packing(n, D)`` keys: every key of the base plus every key of
    the kernel cut at D - |mu|, the base being homogeneous of x-degree |mu|."""
    xy = _xy_packing(n, D)
    base = _xy_sum(xy, [(d_stat(mu), _coinv_counts(SkewShapeTuple.straight(mu), xy), {0: 1})])
    rhs: dict[int, int] = {}
    for kk, ck in _kernel_counts(xy, k, D - sum(map(sum, mu))).items():
        for kb, cb in base.items():
            rhs[kb + kk] = rhs.get(kb + kk, 0) + cb * ck
    return rhs


def minus(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p + q with every coefficient of q negated."""
    return p + LaurentPoly(q.vars, {e: -c for e, c in q.terms.items()})


def one(vars: VarSet) -> LaurentPoly:
    return LaurentPoly.monomial(vars, 1, (0,) * vars.total)


def variable(vars: VarSet, slot: int, power: int = 1) -> LaurentPoly:
    """The variable at ``slot`` to ``power``."""
    exps = [0] * vars.total
    exps[slot] = power
    return LaurentPoly.monomial(vars, 1, exps)


def t(vars: VarSet, power: int = 1) -> LaurentPoly:
    return variable(vars, vars.t_index, power)


# -- face weights -------------------------------------------------------------


def l_weight(k: int, I, J, K, L) -> LaurentPoly:
    """Face weight in x and t; labels are 0/1 tuples or masks.

    Inadmissible faces get weight 0.
    """
    vars = VarSet(nx=1)
    data = face_weight_exponents(*masks(k, I, J, K, L))
    return LaurentPoly(vars) if data is None else LaurentPoly.monomial(vars, 1, data)


def lstar_weight(k: int, I, J, K, L) -> LaurentPoly:
    """Gray face weight x^k t^C(k,2) L_{1/(x t^(k-1))}(I,J;K,L)."""
    return gray_rows(l_weight(k, I, J, K, L), k, 1)


# -- the two sides of the Yang-Baxter equation at one boundary ----------------


# The package builds the YBE tables once per check; a reference that walks
# the boundaries one at a time keeps them per k.
@lru_cache(maxsize=4)
def _plain_tables(k: int) -> tuple:
    return _tables(k, False)


def split(k: int, block: dict) -> dict:
    """{(J1, J2, J3): {packed monomial: coefficient}} of a contracted block,
    read key by key as monomial * 2^(3k) + J1 + J2 2^k + J3 2^(2k), zero
    coefficients dropped."""
    out: dict = {}
    for key, c in block.items():
        if c:
            monomial, J = divmod(key, 1 << 3 * k)
            labels = tuple(J >> shift & ((1 << k) - 1) for shift in (0, k, 2 * k))
            out.setdefault(labels, {})[monomial] = c
    return out


def _side(k: int, boundary, gauche: int, droite: int) -> LaurentPoly:
    """One side of one boundary: the block's signed contraction with the
    other side's sign 0, split by outgoing labels."""
    I1, I2, I3, *outgoing = masks(k, *boundary)
    block = _contract(_plain_tables(k), I1, I2, I3, gauche, droite)
    return _unpack(k, split(k, block).get(tuple(outgoing), {}))


def ybe_gauche(k: int, boundary) -> LaurentPoly:
    """Left side of the intertwining sum for one boundary, symbolically."""
    return _side(k, boundary, 1, 0)


def ybe_droite(k: int, boundary) -> LaurentPoly:
    return _side(k, boundary, 0, 1)


# -- the packed-monomial codec -----------------------------------------------


def decode(packing, counts) -> dict[tuple, int]:
    """{exponent tuple: coefficient} from {key: coefficient}, key by key:
    every bounded field masked at its shift, the last field the rest."""
    return {
        (*[key >> s & packing.mask for s in packing.shifts], key >> packing.top): coeff
        for key, coeff in counts.items()
    }


# -- lattice configurations ---------------------------------------------------


def configs(spec) -> list[tuple]:
    """The levels of every configuration of spec, depth first: each extension
    of a partial configuration is completed, in the row step's order, before
    the next is begun."""
    step = _row_transitions(spec)

    def rec(row: int, levels: tuple) -> list[tuple]:
        if row > spec.n:
            return [levels]
        return [done for tops, _, _ in step(row, levels[-1])
                for done in rec(row + 1, levels + (tops,))]

    return rec(1, (spec.bottom,))
