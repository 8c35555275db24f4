import json
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lltlattice.algebra import LaurentPoly, VarSet, _Packing
from lltlattice.yangbaxter import _PACKING as YBE_PACKING

V2 = VarSet(nx=2)  # x1, x2, t
V1 = VarSet(nx=1)


def x1(v=V2):
    return LaurentPoly.variable(v, 0)


def _parse(text: str) -> LaurentPoly:
    """The polynomial that ``serialize`` wrote as ``text``."""
    data = json.loads(text)
    assert data["vars"]["t"] is True   # every variable set ends in t
    vars = VarSet(nx=data["vars"]["nx"], ny=data["vars"]["ny"])
    return LaurentPoly(vars, {tuple(item["e"]): int(item["c"]) for item in data["terms"]})


def test_add_cancellation():
    assert x1() + (-x1()) == LaurentPoly.zero(V2)


def test_add_like_terms():
    # t*x1^2 + x1^2 = (1+t)*x1^2
    p = LaurentPoly.monomial(V2, 1, (2, 0, 1)) + LaurentPoly.monomial(V2, 1, (2, 0, 0))
    assert p.terms[2, 0, 1] == 1 and p.terms[2, 0, 0] == 1
    assert len(p.terms) == 2


def test_add_vars_mismatch():
    import pytest

    with pytest.raises(ValueError):
        x1(V2) + x1(VarSet(nx=3))


def test_mul_difference_of_squares():
    t = LaurentPoly.t(V2)
    assert (x1() + t) * (x1() - t) == x1() * x1() - t * t


def test_mul_identity():
    p = x1() + 2 * LaurentPoly.t(V2) - 3
    assert LaurentPoly.one(V2) * p == p


def test_mul_face_factors():
    # per-color factors x*t^2, x*t, 1 multiply to the single-face weight x^2 t^3
    v = V1
    f1 = LaurentPoly.monomial(v, 1, (1, 2))
    f2 = LaurentPoly.monomial(v, 1, (1, 1))
    f3 = LaurentPoly.one(v)
    assert f1 * f2 * f3 == LaurentPoly.monomial(v, 1, (2, 3))


def test_substitute_t_inverse():
    p = LaurentPoly.monomial(V2, 1, (1, 0, 2))  # t^2 x1
    q = p.invert_t()
    assert q == LaurentPoly.monomial(V2, 1, (1, 0, -2))
    assert q.invert_t() == p


def test_substitute_swap():
    p = LaurentPoly.monomial(V2, 1, (2, 1, 0))  # x1^2 x2
    q = p.swap_vars(V2.x_index(1), V2.x_index(2))
    assert q == LaurentPoly.monomial(V2, 1, (1, 2, 0))


V_XY = VarSet(nx=2, ny=2)  # x1, x2, y1, y2, t
laurent_xy = st.dictionaries(
    st.tuples(*[st.integers(min_value=-2, max_value=2)] * V_XY.total),
    st.sampled_from([-3, -1, 1, 2]),
    max_size=6,
).map(lambda d: LaurentPoly(V_XY, d))


def _unit(slot: int, power: int = 1) -> tuple[int, tuple]:
    exps = [0] * V_XY.total
    exps[slot] = power
    return 1, tuple(exps)


@given(laurent_xy)
@settings(max_examples=60, deadline=None)
def test_exponent_maps_match_substitute(p):
    # invert_t, invert_x and swap_vars move exponents directly; substitute is
    # the general route they must agree with
    ti = V_XY.t_index
    assert p.invert_t() == p.substitute({ti: _unit(ti, -1)})
    assert p.invert_x() == p.substitute({i: _unit(i, -1) for i in range(V_XY.nx)})
    for a in range(V_XY.total):
        for b in range(V_XY.total):
            assert p.swap_vars(a, b) == p.substitute({a: _unit(b), b: _unit(a)})


def test_substitute_signed_monomial():
    # x -> -x t: x^2 picks up t^2, x^3 flips sign
    p = LaurentPoly.monomial(V1, 1, (3, 0))
    q = p.substitute({0: (-1, (1, 1))})
    assert q == LaurentPoly.monomial(V1, -1, (3, 3))


def test_coinv_from_inv_by_substitution():
    # L = t^m G(1/t) on the first worked shape, m = 3
    from lltlattice.shapes import SkewShapeTuple, m_bruteforce
    from lltlattice.tableaux import llt_coinv, llt_inv

    shape = SkewShapeTuple(((3,), (2,)), ((0,), (0,)))
    L = llt_coinv(shape, 2)
    G = llt_inv(shape, 2)
    m = m_bruteforce(shape)
    assert m == 3
    assert L == LaurentPoly.t(L.vars, m) * G.invert_t()
    assert min(e[-1] for e in G.terms) == 0
    assert all(c > 0 for c in G.terms.values())


def test_eval_rational():
    p = LaurentPoly.monomial(V1, 1, (2, 1))  # x^2 t
    assert p.eval_rational((2, 3)) == 12
    v = VarSet(nx=1, ny=1)
    q = LaurentPoly.one(v) - LaurentPoly.monomial(v, 1, (-1, 1, 0))  # 1 - y/x
    assert q.eval_rational((2, 2, 5)) == 0


def test_eval_rational_ybe_entry():
    # both sides of one k=2 intertwining entry agree at a rational point
    from reference import ybe_droite, ybe_gauche

    boundary = (0b01, 0b10, 0b00, 0b10, 0b01, 0b00)
    g = ybe_gauche(2, boundary)
    d = ybe_droite(2, boundary)
    point = (Fraction(2), Fraction(3), Fraction(5))
    assert g.eval_rational(point) == d.eval_rational(point)


def test_eval_zero_negative_exponent():
    import pytest

    p = LaurentPoly.monomial(V1, 1, (-1, 0))
    with pytest.raises(ZeroDivisionError):
        p.eval_rational((0, 1))


def test_truncate():
    x = LaurentPoly.variable(V1, 0)
    p = LaurentPoly.one(V1) + x + LaurentPoly.monomial(V1, 1, (2, 0))
    assert p.truncate_x(1) == LaurentPoly.one(V1) + x
    assert p.truncate_x(100) == p


def test_truncate_geometric():
    v = VarSet(nx=1, ny=1)
    xy = LaurentPoly.monomial(v, 1, (1, 1, 0))
    series = LaurentPoly.one(v) + xy + xy * xy
    geom = LaurentPoly.one(v)
    power = LaurentPoly.one(v)
    for _ in range(5):
        power = power * xy
        geom = geom + power
    assert geom.truncate_x(2) == series


def test_serialize_zero():
    z = LaurentPoly.zero(V2)
    data = json.loads(z.serialize())
    assert data["terms"] == []
    assert data["vars"] == {"nx": 2, "ny": 0, "t": True}


def test_serialize_order():
    p = LaurentPoly.monomial(V2, 1, (1, 1, 1)) + LaurentPoly.monomial(V2, 1, (1, 1, 0))
    data = json.loads(p.serialize())
    assert [item["e"] for item in data["terms"]] == [[1, 1, 1], [1, 1, 0]]


def test_serialize_roundtrip_golden():
    # the second worked polynomial reparses to an equal value
    from lltlattice.shapes import SkewShapeTuple
    from lltlattice.tableaux import llt_coinv

    shape = SkewShapeTuple(((3, 3), (3, 1)), ((2, 1), (1, 0)))
    p = llt_coinv(shape, 2)
    assert _parse(p.serialize()) == p


# -- property tests -------------------------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9)
exps = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
polys = st.dictionaries(exps, coeffs, max_size=4).map(lambda d: LaurentPoly(V2, d))


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys)
@settings(max_examples=60, deadline=None)
def test_t_inversion_involution(p):
    assert p.invert_t().invert_t() == p


@given(polys)
@settings(max_examples=60, deadline=None)
def test_serialize_parse_identity(p):
    assert _parse(p.serialize()) == p


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_eval_is_ring_morphism(a, b, c):
    point = (Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3))
    lhs = (a * b + c).eval_rational(point)
    rhs = a.eval_rational(point) * b.eval_rational(point) + c.eval_rational(point)
    assert lhs == rhs


monomials = st.dictionaries(exps, coeffs.filter(bool), min_size=1, max_size=1).map(
    lambda d: LaurentPoly(V2, d)
)


@given(monomials, polys)
@settings(max_examples=60, deadline=None)
def test_monomial_shift_matches_termwise_product(m, p):
    ((e, c),) = m.terms.items()
    termwise = LaurentPoly.zero(V2)
    for e2, c2 in p.terms.items():
        termwise = termwise + LaurentPoly.monomial(V2, c * c2, [a + b for a, b in zip(e, e2)])
    for product in (m * p, p * m):
        assert product == termwise
        assert 0 not in product.terms.values()


# Exponents 0 or 1 and small coefficients, so like terms collide and cancel.
colliding = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=1)] * 3),
    st.sampled_from([-2, -1, 1, 2]),
    max_size=4,
).map(lambda d: LaurentPoly(V2, d))


@given(colliding, colliding)
@example(  # x1 + t and x1*t - t: every operation below cancels a term
    LaurentPoly(V2, {(1, 0, 0): 1, (0, 0, 1): 1}),
    LaurentPoly(V2, {(1, 0, 1): 1, (0, 0, 1): -1}),
)
@settings(max_examples=80, deadline=None)
def test_no_result_stores_a_zero_coefficient(a, b):
    results = [
        a + b,
        a - b,
        a - a,
        a * b,
        (a + b) * (a - b),
        a.invert_t(),
        a.swap_vars(0, 2),
        b.substitute({0: (1, (0, 0, 0))}),  # x1 -> 1 collides terms
        (a - b).substitute({0: (-1, (0, 0, 0))}),  # x1 -> -1
    ]
    assert (a - a).is_zero()
    for r in results:
        assert 0 not in r.terms.values()


# -- the packed-monomial codec ---------------------------------------------------


@st.composite
def packings(draw):
    """A packing at the widths its callers use: the YBE contraction's signed
    (x, y, t), or ``llt_coinv``'s unsigned x_1..x_n under t for a shape of
    up to 60 cells."""
    if draw(st.booleans()):
        return YBE_PACKING
    n, cells = draw(st.integers(1, 6)), draw(st.integers(0, 60))
    return _Packing(n + 1, (cells + 1).bit_length())   # as llt_coinv builds it


def exponent_vectors(packing, factors=1):
    """Exponent vectors whose bounded fields fit ``factors`` times over; the
    last field is unbounded."""
    low, high = -(-packing.low // factors), (packing.low + packing.mask) // factors
    bounded = [st.integers(low, high)] * len(packing.shifts)
    return st.tuples(*bounded, st.integers(-10**6, 10**6))


def test_packing_field_ranges():
    assert (YBE_PACKING.low, YBE_PACKING.low + YBE_PACKING.mask) == (-128, 127)
    assert (_Packing(3, 4).low, _Packing(3, 4).mask) == (0, 15)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_packing_round_trip(data):
    packing = data.draw(packings())
    terms = data.draw(st.dictionaries(exponent_vectors(packing), coeffs.filter(bool), max_size=4))
    assert packing.decode(packing.encode(terms, 1)) == terms


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sum_of_packed_monomials_is_their_product(data):
    packing = data.draw(packings())
    vectors = data.draw(st.lists(exponent_vectors(packing, 3), min_size=1, max_size=3))
    keys = [key for e in vectors for key in packing.encode({e: 1}, 3)]
    assert packing.decode({sum(keys): 5}) == {tuple(map(sum, zip(*vectors))): 5}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_exponent_outside_its_field_raises(data):
    packing = data.draw(packings())
    factors = data.draw(st.sampled_from([1, 3]))
    e = list(data.draw(exponent_vectors(packing, factors)))
    field = data.draw(st.integers(0, len(packing.shifts) - 1))
    low, high = packing.low, packing.low + packing.mask
    over = data.draw(st.integers(high // factors + 1, high + 300))
    under = data.draw(st.integers(low - 300, -(-low // factors) - 1))
    e[field] = data.draw(st.sampled_from([over, under]))
    with pytest.raises(ValueError, match="does not fit"):
        packing.encode({tuple(e): 1}, factors)
    if factors == 1:   # packed by hand, the value carries into the next field
        raw = sum(v << s for v, s in zip(e, packing.shifts)) + (e[-1] << packing.top)
        assert packing.decode({raw: 1}) != {tuple(e): 1}


def test_packing_rejects_a_wrong_length():
    with pytest.raises(ValueError, match="expected 3 exponents, got 2"):
        YBE_PACKING.encode({(1, 2): 1}, 1)


def test_decode_reads_signed_fields():
    key = 1 + (2 << 8) - (3 << 16)   # exponents (1, 2, -3), packed by hand
    assert YBE_PACKING.decode({key: -4}) == {(1, 2, -3): -4}
    key = -1 - (2 << 8) + (3 << 16)  # exponents (-1, -2, 3)
    assert YBE_PACKING.decode({key: 7}) == {(-1, -2, 3): 7}
