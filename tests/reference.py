"""Definition-level references that the tests check the package against.

``triples`` lists the triples of a skew tuple as records, straight from the
definition, and ``coinv`` and ``inv_triples`` count one tableau tuple's
coinversion and inversion triples over them; the package itself reads its
triples as flat positions from ``shapes._pair_triples``.  ``l_weight`` and
``lstar_weight`` are single plain and gray face weights as polynomials, and
``ybe_gauche`` and ``ybe_droite`` are one boundary's two sides of the
Yang-Baxter equation, cut out of the block sums that ``ybe_check`` compares.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.lattice import face_weight_exponents, gray_rows, masks
from lltlattice.shapes import SkewShapeTuple
from lltlattice.tableaux import INF, TableauTuple
from lltlattice.yangbaxter import _droite_block, _gauche_block, _side_poly, _tables


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


# -- face weights -------------------------------------------------------------


def l_weight(k: int, I, J, K, L) -> LaurentPoly:
    """Face weight in x and t; labels are 0/1 tuples or masks.

    Inadmissible faces get weight 0.
    """
    vars = VarSet(nx=1)
    data = face_weight_exponents(*masks(k, I, J, K, L))
    return LaurentPoly.zero(vars) if data is None else LaurentPoly.monomial(vars, 1, data)


def lstar_weight(k: int, I, J, K, L) -> LaurentPoly:
    """Gray face weight x^k t^C(k,2) L_{1/(x t^(k-1))}(I,J;K,L)."""
    return gray_rows(l_weight(k, I, J, K, L), k, 1)


# -- the two sides of the Yang-Baxter equation at one boundary ----------------


def ybe_gauche(k: int, boundary) -> LaurentPoly:
    """Left side of the intertwining sum for one boundary, symbolically."""
    I1, I2, I3, *outgoing = masks(k, *boundary)
    return _side_poly(_gauche_block(*_tables(k, False), I1, I2, I3).get(tuple(outgoing), {}))


def ybe_droite(k: int, boundary) -> LaurentPoly:
    I1, I2, I3, *outgoing = masks(k, *boundary)
    return _side_poly(_droite_block(*_tables(k, False), I1, I2, I3).get(tuple(outgoing), {}))
