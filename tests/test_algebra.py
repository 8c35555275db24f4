import json
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lltlattice.algebra import LaurentPoly, VarSet, _Packing
from lltlattice.yangbaxter import _packing as ybe_packing
import reference
from reference import decode as reference_decode, minus

V2 = VarSet(nx=2)  # x1, x2, t
V1 = VarSet(nx=1)


def x1(v=V2):
    return reference.variable(v, 0)


def _parse(text: str) -> LaurentPoly:
    """The polynomial that ``serialize`` wrote as ``text``."""
    data = json.loads(text)
    assert data["vars"]["t"] is True   # every variable set ends in t
    vars = VarSet(nx=data["vars"]["nx"], ny=data["vars"]["ny"])
    return LaurentPoly(vars, {tuple(item["e"]): int(item["c"]) for item in data["terms"]})


def test_add_cancellation():
    assert x1() + LaurentPoly.monomial(V2, -1, (1, 0, 0)) == LaurentPoly(V2)


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
    t = reference.t(V2)
    assert (x1() + t) * minus(x1(), t) == minus(x1() * x1(), t * t)


def test_mul_identity():
    p = x1() + LaurentPoly.monomial(V2, 2, (0, 0, 1)) + -3
    assert reference.one(V2) * p == p


def test_mul_face_factors():
    # per-color factors x*t^2, x*t, 1 multiply to the single-face weight x^2 t^3
    v = V1
    f1 = LaurentPoly.monomial(v, 1, (1, 2))
    f2 = LaurentPoly.monomial(v, 1, (1, 1))
    f3 = reference.one(v)
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


def _laurent(vars: VarSet):
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * vars.total),
        st.sampled_from([-3, -1, 1, 2]),
        max_size=6,
    ).map(lambda d: LaurentPoly(vars, d))


def _unit(vars: VarSet, slot: int, power: int = 1) -> tuple[int, tuple]:
    exps = [0] * vars.total
    exps[slot] = power
    return 1, tuple(exps)


@given(st.one_of(_laurent(V_XY), _laurent(VarSet(nx=0))))
@settings(max_examples=60, deadline=None)
def test_exponent_maps_match_substitute(p):
    # invert_t, invert_x and swap_vars move exponents directly; substitute is
    # the general route they must agree with.  VarSet(nx=0) holds t alone, so
    # its one swap is of t with itself; a negative slot counts from the end
    vars, total = p.vars, p.vars.total
    ti = vars.t_index
    assert p.invert_t() == p.substitute({ti: _unit(vars, ti, -1)})
    assert p.invert_x() == p.substitute({i: _unit(vars, i, -1) for i in range(vars.nx)})
    for a in range(-total, total):
        for b in range(-total, total):
            sa, sb = a % total, b % total
            assert p.swap_vars(a, b) == p.substitute({sa: _unit(vars, sb), sb: _unit(vars, sa)})
    for slot in (-total - 1, total):
        with pytest.raises(IndexError):
            p.swap_vars(slot, 0)


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
    assert L == reference.t(L.vars, m) * G.invert_t()
    assert min(e[-1] for e in G.terms) == 0
    assert all(c > 0 for c in G.terms.values())


def test_eval_rational():
    p = LaurentPoly.monomial(V1, 1, (2, 1))  # x^2 t
    assert p.eval_rational((2, 3)) == 12
    v = VarSet(nx=1, ny=1)
    q = LaurentPoly(v, {(0, 0, 0): 1, (-1, 1, 0): -1})  # 1 - y/x
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
    x = reference.variable(V1, 0)
    p = reference.one(V1) + x + LaurentPoly.monomial(V1, 1, (2, 0))
    assert p.truncate_x(1) == reference.one(V1) + x
    assert p.truncate_x(100) == p


def test_truncate_geometric():
    v = VarSet(nx=1, ny=1)
    xy = LaurentPoly.monomial(v, 1, (1, 1, 0))
    series = reference.one(v) + xy + xy * xy
    geom = reference.one(v)
    power = reference.one(v)
    for _ in range(5):
        power = power * xy
        geom = geom + power
    assert geom.truncate_x(2) == series


BAD_CALLS = [  # (id, call, error, message)
    ("negative-count", lambda: VarSet(nx=-1), ValueError, "^variable counts must be nonnegative$"),
    ("x-index", lambda: V1.x_index(2), IndexError, "^x_2 not in variable set$"),
    ("short-exponents", lambda: LaurentPoly(V1, {(1,): 1}), ValueError,
     r"^exponent vector \(1,\) has length 1, expected 2$"),
    ("setattr", lambda: setattr(x1(V1), "terms", {}), AttributeError, "^LaurentPoly is immutable$"),
    ("substitute-sign", lambda: x1(V1).substitute({0: (2, (1, 0))}), ValueError,
     r"^substitution coefficient must be \+1 or -1$"),
    ("substitute-width", lambda: x1(V1).substitute({0: (1, (1,))}), ValueError,
     "^substitution monomial has wrong width$"),
    ("eval-values", lambda: x1(V1).eval_rational([1]), ValueError, "^wrong number of values$"),
    ("truncate-bound", lambda: x1(V1).truncate_x(-1), ValueError,
     "^degree bound must be nonnegative$"),
    ("shift-width", lambda: x1(V1).shifted((1,)), ValueError,
     r"^shift \(1,\) has length 1, expected 2$"),
    ("add-str", lambda: x1(V1) + "a", TypeError, "unsupported operand"),
    ("sub-str", lambda: x1(V1) - "a", TypeError, "unsupported operand"),
    ("sub-poly", lambda: x1(V1) - x1(V1), TypeError, "unsupported operand"),
    ("neg", lambda: -x1(V1), TypeError, "bad operand type for unary -"),
    ("mul-int", lambda: 2 * x1(V1), TypeError, "unsupported operand"),
    ("mul-str", lambda: x1(V1) * "a", TypeError, "can't multiply sequence"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in BAD_CALLS],
                         ids=[row[0] for row in BAD_CALLS])
def test_bad_calls_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_zero_is_falsy_and_prints_as_0():
    zero = LaurentPoly(V2)
    assert not zero
    assert reference.one(V2)
    assert zero.to_text() == zero.to_grouped_text() == "0"


def test_serialize_zero():
    z = LaurentPoly(V2)
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
    termwise = LaurentPoly(V2)
    for e2, c2 in p.terms.items():
        termwise = termwise + LaurentPoly.monomial(V2, c * c2, [a + b for a, b in zip(e, e2)])
    for product in (m * p, p * m):
        assert product == termwise
        assert 0 not in product.terms.values()
    assert p.shifted(e) == LaurentPoly(V2, {e: 1}) * p


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
        minus(a, b),
        minus(a, a),
        a * b,
        (a + b) * minus(a, b),
        a.invert_t(),
        a.swap_vars(0, 2),
        b.substitute({0: (1, (0, 0, 0))}),  # x1 -> 1 collides terms
        minus(a, b).substitute({0: (-1, (0, 0, 0))}),  # x1 -> -1
    ]
    assert minus(a, a).is_zero()
    for r in results:
        assert 0 not in r.terms.values()


# -- the packed-monomial codec ---------------------------------------------------


@st.composite
def packings(draw):
    """A packing at the bounds its callers state: the YBE contraction's (x, y,
    t) for k <= 6 colors, or x_1..x_n under t for a bound of up to 60."""
    if draw(st.booleans()):
        return ybe_packing(draw(st.integers(0, 6)))
    return _Packing(VarSet(nx=draw(st.integers(1, 6))), draw(st.integers(0, 60)))


def exponent_vectors(packing, factors=1):
    """Exponent vectors whose bounded fields stay within the bound ``factors``
    times over; the last field is unbounded."""
    bounded = [st.integers(0, packing.bound // factors)] * len(packing.shifts)
    return st.tuples(*bounded, st.integers(-10**6, 10**6))


def test_packing_field_ranges():
    # a field is the bound's bit length wide, at least one bit
    masks = [_Packing(VarSet(nx=2), bound).mask for bound in (0, 1, 2, 3, 4, 7, 8)]
    assert masks == [1, 1, 3, 3, 7, 7, 15]
    assert (ybe_packing(1).mask, ybe_packing(2).mask) == (7, 15)   # bounds 6 and 12


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
    over = data.draw(st.integers(packing.bound // factors + 1, packing.mask + 300))
    under = data.draw(st.integers(-300, -1))
    e[field] = data.draw(st.sampled_from([over, under]))
    with pytest.raises(ValueError, match="does not fit a field bounded by"):
        packing.encode({tuple(e): 1}, factors)
    if not 0 <= e[field] <= packing.mask:   # packed by hand, it carries or borrows
        raw = sum(v << s for v, s in zip(e, packing.shifts)) + (e[-1] << packing.top)
        assert packing.decode({raw: 1}) != {tuple(e): 1}


def test_packing_rejects_a_wrong_length():
    with pytest.raises(ValueError, match="expected 3 exponents, got 2"):
        ybe_packing(1).encode({(1, 2): 1}, 1)


@given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 60),
       st.lists(st.tuples(st.lists(st.integers(0, 63), min_size=9, max_size=9),
                          st.integers(-10**6, 10**6), coeffs.filter(bool)), max_size=6))
@example(2, 1, 5, [])                                           # no terms
@example(0, 0, 0, [([0] * 9, -3, 1)])                           # t alone, negative
@example(3, 0, 12, [([1, 2, 3] + [0] * 6, -1, 2), ([0] * 9, 5, -1), ([12] * 9, 0, 4)])
@settings(max_examples=200, deadline=None)
def test_decode_matches_the_per_key_reference(nx, ny, bound, terms):
    # the same terms in the same order as the key-by-key formula; each
    # bounded field takes any value its mask holds, the t field any sign
    packing = _Packing(VarSet(nx=nx, ny=ny), bound)
    counts = {
        sum((e & packing.mask) << s for e, s in zip(fields, packing.shifts))
        + (last << packing.top): coeff
        for fields, last, coeff in terms
    }
    assert list(packing.decode(counts).items()) == list(reference_decode(packing, counts).items())
