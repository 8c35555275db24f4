import random
from collections import Counter
from itertools import accumulate, permutations
from math import comb, prod
from operator import sub

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lltlattice import shapes, tableaux
from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.identities import shape_tuples_bounded
from lltlattice.lattice import build_box_lattice, build_lattice, gray_rows, partition_function
from lltlattice.shapes import SkewShapeTuple, _pair_triples, inv_stat, m_bruteforce
from lltlattice.tableaux import (
    TableauTuple,
    _component_fillings,
    attacking_inversions,
    complement_bijection,
    enumerate_ssyt,
    hl_modified,
    hl_transformed,
    llt_coinv,
    llt_inv,
    schur,
)
from reference import coinv, inv_triples, triples
from shapegen import random_skew_tuple, random_straight_tuple

FIRST = SkewShapeTuple(((3,), (2,)), ((0,), (0,)))
SECOND = SkewShapeTuple(((3, 3), (3, 1)), ((2, 1), (1, 0)))

# shapes ((3,1), (2,2,2)/(1,1,1), (1), (2,1)/(2,0)) with the worked filling
EX2 = SkewShapeTuple(
    ((3, 1), (2, 2, 2), (1,), (2, 1)),
    ((0, 0), (1, 1, 1), (0,), (2, 0)),
)
EX2_FILLING = TableauTuple(
    EX2,
    (((2, 5, 9), (8,)), ((1,), (4,), (6,)), ((7,),), ((), (3,))),
)


def golden_first(vars):
    # t(x1^2x2^3 + x1^3x2^2) + t^2(x1x2^4 + x1^2x2^3 + x1^3x2^2 + x1^4x2)
    #   + t^3(x2^5 + x1x2^4 + x1^2x2^3 + x1^3x2^2 + x1^4x2 + x1^5)
    terms = {}
    for (a, b), c in {(2, 3): 1, (3, 2): 1}.items():
        terms[(a, b, 1)] = c
    for (a, b) in ((1, 4), (2, 3), (3, 2), (4, 1)):
        terms[(a, b, 2)] = 1
    for (a, b) in ((0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0)):
        terms[(a, b, 3)] = 1
    return LaurentPoly(vars, terms)


def golden_second(vars):
    # t(x1^2x2^4 + x1^3x2^3 + x1^4x2^2)
    #   + t^2(x1x2^5 + 2x1^2x2^4 + 3x1^3x2^3 + 2x1^4x2^2 + x1^5x2)
    terms = {(2, 4, 1): 1, (3, 3, 1): 1, (4, 2, 1): 1,
             (1, 5, 2): 1, (2, 4, 2): 2, (3, 3, 2): 3, (4, 2, 2): 2, (5, 1, 2): 1}
    return LaurentPoly(vars, terms)


def test_enumeration_counts():
    assert len(enumerate_ssyt(FIRST, 2)) == 12
    assert len(enumerate_ssyt(SECOND, 2)) == 12
    single = SkewShapeTuple(((1,),), ((0,),))
    assert len(enumerate_ssyt(single, 1)) == 1


def test_enumeration_is_deterministic_and_duplicate_free():
    ts = enumerate_ssyt(SECOND, 2)
    assert enumerate_ssyt(SECOND, 2) == ts
    assert len(set(ts)) == len(ts)


def test_worked_filling_statistics():
    # the attacking-inversion count and the total triple count pin this
    # filling's statistics: inv + coinv must equal m
    assert m_bruteforce(EX2) == 16
    assert attacking_inversions(EX2_FILLING) == 8
    assert inv_triples(EX2_FILLING) == 8
    assert coinv(EX2_FILLING) == 8
    assert coinv(EX2_FILLING) == m_bruteforce(EX2) - attacking_inversions(EX2_FILLING)


def test_coinv_single_shape_is_zero():
    shape = SkewShapeTuple(((3, 2),), ((0, 0),))
    for T in enumerate_ssyt(shape, 3):
        assert coinv(T) == 0
        assert attacking_inversions(T) == 0


def test_coinv_superstandard_pair():
    shape = SkewShapeTuple.straight(((1,), (1,)))
    both_ones = TableauTuple(shape, (((1,),), ((1,),)))
    assert coinv(both_ones) == 1
    decreasing = TableauTuple(shape, (((2,),), ((1,),)))
    assert attacking_inversions(decreasing) == 1
    assert coinv(decreasing) == 0


def test_constant_filling_has_no_inversions():
    for T in enumerate_ssyt(FIRST, 1):
        assert attacking_inversions(T) == 0


def test_inv_triple_count_matches_attacking_pairs():
    rng = random.Random(11)
    for _ in range(25):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3)
        n = rng.randint(1, 3)
        for T in enumerate_ssyt(shape, n)[:8]:
            assert inv_triples(T) == attacking_inversions(T)
            assert inv_triples(T) + coinv(T) == m_bruteforce(shape)


def test_llt_coinv_goldens():
    P1 = llt_coinv(FIRST, 2)
    assert P1 == golden_first(P1.vars)
    P2 = llt_coinv(SECOND, 2)
    assert P2 == golden_second(P2.vars)


def _reference_llt_coinv(shape, n):
    """Sum of t^coinv(T) x^T over the enumerated, sorted tableau tuples."""
    return LaurentPoly(VarSet(nx=n), Counter(
        (*T.weight_exponents(n), coinv(T)) for T in enumerate_ssyt(shape, n)
    ))


@st.composite
def small_skew_tuples(draw):
    """k <= 3 components, up to 3 rows, parts <= 3; empty shapes included."""
    beta, gamma = [], []
    for _ in range(draw(st.integers(1, 3))):
        b = tuple(sorted(draw(st.lists(st.integers(0, 3), max_size=3)), reverse=True))
        g = tuple(sorted((draw(st.integers(0, v)) for v in b), reverse=True))
        beta.append(b)
        gamma.append(g)
    return SkewShapeTuple(tuple(beta), tuple(gamma))


@given(small_skew_tuples(), st.integers(1, 4))
@example(SkewShapeTuple(((), (0, 0)), ((), (0, 0))), 2)            # no cells at all
@example(SkewShapeTuple(((1, 1, 1), (2,)), ((0, 0, 0), (0,))), 2)  # column taller than n
def test_llt_coinv_equals_per_tableau_sum(shape, n):
    # keep the per-tableau reference affordable
    assume(prod(len(_component_fillings(b, g, n)) for b, g in zip(shape.beta, shape.gamma)) <= 3000)
    P = llt_coinv(shape, n)
    assert P == _reference_llt_coinv(shape, n)
    # a skew shape has a filling in [n] exactly when no column is taller than n
    tall = any(
        sum(g < c <= b for b, g in zip(beta, gamma)) > n
        for beta, gamma in zip(shape.beta, shape.gamma)
        for c in range(1, max(beta, default=0) + 1)
    )
    assert P.is_zero() == tall


@pytest.mark.parametrize("few", [0, 10**9], ids=["tables", "direct"])
def test_llt_coinv_both_counting_paths(monkeypatch, few):
    # every shape goes through the pairwise tables, or every shape through
    # the per-tuple count
    monkeypatch.setattr(tableaux, "_FEW_TUPLES", few)
    rng = random.Random(5)
    for _ in range(30):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3)
        n = rng.randint(1, 3)
        assert llt_coinv(shape, n) == _reference_llt_coinv(shape, n)


def _reference_pair_triples(shape):
    """``triples(shape)`` as flat positions (pos_v in a, pos_u in b, pos_w
    in b), grouped by components a < b, from the Triple records."""
    first = [
        [end - g - 1 for end, g in zip(accumulate(map(sub, beta, gamma), initial=0), gamma)]
        for beta, gamma in zip(shape.beta, shape.gamma)
    ]
    pairs = {}
    for a, v_row, v_col, b, row, q, u_inside, w_inside in triples(shape):
        pos_u = first[b][row - 1] + q
        pairs.setdefault((a, b), []).append((
            first[a][v_row - 1] + v_col,
            pos_u if u_inside else -1,
            pos_u + 1 if w_inside else -1,
        ))
    return pairs


@given(small_skew_tuples())
@example(SkewShapeTuple(((2, 1),), ((1, 0),)))                      # one component
@example(SkewShapeTuple(((0, 0), (2, 1)), ((0, 0), (1, 0))))        # rows with no cells
@example(SkewShapeTuple(((2, 2), (3, 1)), ((2, 1), (1, 1))))        # gamma = beta rows
@example(SkewShapeTuple(((1,), (2, 2), (3, 1, 1)), ((0,), (2, 0), (1, 1, 0))))
def test_pair_positions_match_triples(shape):
    pairs = _pair_triples(shape)
    reference = _reference_pair_triples(shape)
    assert {pair: Counter(trips) for pair, trips in pairs.items()} == {
        pair: Counter(trips) for pair, trips in reference.items()
    }
    assert m_bruteforce(shape) == len(triples(shape))


def test_llt_coinv_golden_without_triple_records():
    for cached in (tableaux._component_fillings, shapes._pair_positions):
        cached.cache_clear()
    P = llt_coinv(SkewShapeTuple.straight(((3, 2), (2, 1), (2, 0))), 5)
    assert len(P.terms) == 4958
    assert sum(P.terms.values()) == 175 * 40 * 15


def test_trusted_results_equal_checked_construction():
    # llt_coinv, partition_function and gray_rows build their results without
    # the constructor's checks; the checks would change nothing
    rng = random.Random(41)
    results = []
    for _ in range(40):
        shape = random_skew_tuple(rng)
        n = rng.randint(1, 3)
        results += [llt_coinv(shape, n), partition_function(build_lattice(shape, n))]
    for right_exit in (False, True):
        P = partition_function(build_box_lattice(((1, 0), (2, 1)), 5, 2, right_exit=right_exit))
        results += [P, gray_rows(P, 2, 5)]
    for P in results:
        checked = LaurentPoly(P.vars, dict(P.terms))
        assert list(P.terms.items()) == list(checked.terms.items())
    assert sum(not P.is_zero() for P in results) > 60


def test_memoized_values_survive_a_sweep():
    # every value computed on warm caches equals the value computed cold,
    # also for a shape repeated after the sweep: no cached value is mutated
    def cold(shape, n):
        for cached in (tableaux._component_fillings, shapes._pair_positions):
            cached.cache_clear()
        return llt_coinv(shape, n)

    rng = random.Random(43)
    sweep = [(SkewShapeTuple.straight(lam), 2) for lam in shape_tuples_bounded(3, 2, 3)]
    sweep += [(random_skew_tuple(rng), rng.randint(1, 3)) for _ in range(40)]
    expected = [cold(shape, n) for shape, n in sweep]
    cold(*sweep[0])
    assert [llt_coinv(shape, n) for shape, n in sweep] == expected
    assert llt_coinv(*sweep[0]) == expected[0]
    assert isinstance(_component_fillings((2, 1), (0, 0), 3), tuple)


def _jacobi_trudi_count(beta, gamma, n):
    """Fillings of beta/gamma with entries in [n]: det h_{b_i - g_j - i + j}(1^n)."""
    m = len(beta)

    def h(d):
        return comb(n + d - 1, d) if d >= 0 else 0

    return sum(
        (-1) ** inv_stat(sigma)
        * prod(h(beta[i] - gamma[sigma[i]] - i + sigma[i]) for i in range(m))
        for sigma in permutations(range(m))
    )


def test_llt_coinv_golden_three_components_n5():
    shape = SkewShapeTuple.straight(((3, 2), (2, 1), (2, 0)))
    P = llt_coinv(shape, 5)
    assert len(P.terms) == 4958
    expected = prod(_jacobi_trudi_count(b, g, 5) for b, g in zip(shape.beta, shape.gamma))
    assert expected == 175 * 40 * 15
    assert sum(P.terms.values()) == expected


def test_llt_coinv_does_not_enumerate(monkeypatch):
    def refuse(*args):
        raise AssertionError("llt_coinv built a tableau tuple")

    monkeypatch.setattr(tableaux, "enumerate_ssyt", refuse)
    monkeypatch.setattr(TableauTuple, "__init__", refuse)
    P = llt_coinv(SECOND, 2)
    assert P == golden_second(P.vars)
    assert llt_coinv(EX2, 3) != LaurentPoly.zero(VarSet(nx=3))


def test_llt_coinv_two_cells():
    shape = SkewShapeTuple.straight(((1,), (1,)))
    P = llt_coinv(shape, 2)
    expected = LaurentPoly(
        P.vars, {(2, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1, (0, 2, 1): 1}
    )
    assert P == expected
    # at t = 1 this is s_1(x1,x2)^2
    s1 = schur((1,), 2)
    ones = {P.vars.t_index: (1, (0,) * P.vars.total)}
    assert P.substitute(ones) == (s1 * s1).substitute(ones)


def test_llt_inv_relation_on_worked_shapes():
    for shape in (FIRST, SECOND):
        L = llt_coinv(shape, 2)
        G = llt_inv(shape, 2)
        m = m_bruteforce(shape)
        assert L == LaurentPoly.t(L.vars, m) * G.invert_t()


def test_llt_single_color_is_schur():
    # k = 1: no attacking pairs survive, so the polynomial is a Schur function
    shape = SkewShapeTuple(((2, 1),), ((0, 0),))
    G = llt_inv(shape, 2)
    L = llt_coinv(shape, 2)
    expected = LaurentPoly(G.vars, {(2, 1, 0): 1, (1, 2, 0): 1})
    assert G == expected
    assert L == expected


def test_llt_empty_shape():
    shape = SkewShapeTuple(((0,),), ((0,),))
    assert llt_inv(shape, 2) == LaurentPoly.one(VarSet(nx=2))


def test_llt_at_t_one_is_product_of_skew_schurs():
    rng = random.Random(23)
    for _ in range(10):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=2)
        n = 2
        P = llt_coinv(shape, n)
        ones = {P.vars.t_index: (1, (0,) * P.vars.total)}
        prod = LaurentPoly.one(P.vars)
        for i in range(shape.k):
            single = SkewShapeTuple((shape.beta[i],), (shape.gamma[i],))
            prod = prod * llt_coinv(single, n)
        assert P.substitute(ones) == prod.substitute(ones)


def test_llt_symmetric():
    P = llt_coinv(SECOND, 3)
    for i in (1, 2):
        assert P.swap_vars(P.vars.x_index(i), P.vars.x_index(i + 1)) == P


# -- Hall-Littlewood -----------------------------------------------------------


def test_hl_one_box():
    H = hl_transformed((1,), 1)
    assert H == LaurentPoly.variable(VarSet(nx=1), 0)


def test_hl_from_worked_polynomial():
    # L_{((3),(2))} = t^{inv(3,2)} H_{(3,2)} with inv = 1
    H = hl_transformed((3, 2), 2)
    L = llt_coinv(FIRST, 2)
    assert L == LaurentPoly.t(H.vars, 1) * H


def test_hl_reversed_rows():
    for mu in ((2,), (2, 1), (2, 2), (3, 1)):
        H = hl_transformed(mu, 2)
        rev = SkewShapeTuple.straight(tuple((p,) for p in reversed(mu)))
        assert llt_coinv(rev, 2) == H


def test_hl_rearrangements():
    mu = (2, 1, 1)
    H = hl_transformed(mu, 3)
    for beta in set(permutations(mu)):
        rows = SkewShapeTuple.straight(tuple((p,) for p in beta))
        assert llt_coinv(rows, 3) == LaurentPoly.t(H.vars, inv_stat(beta)) * H


def test_hl_at_t_one():
    mu = (3, 2)
    H = hl_transformed(mu, 2)
    ones = {H.vars.t_index: (1, (0,) * H.vars.total)}
    prod = schur((3,), 2) * schur((2,), 2)
    assert H.substitute(ones) == prod.substitute(ones)


def test_hl_modified():
    for mu, n in (((2, 2), 2), ((1,), 3), ((3, 1), 3)):
        rows = SkewShapeTuple.straight(tuple((p,) for p in mu))
        G = llt_inv(rows, n)
        Ht = hl_modified(mu, n)
        assert G == Ht
        assert all(c > 0 for c in Ht.terms.values())
        assert all(e[-1] >= 0 for e in Ht.terms)


def test_hl_modified_one_box():
    assert hl_modified((1,), 3) == hl_transformed((1,), 3)


# -- column complement ----------------------------------------------------------


def test_complement_bijection_worked_example():
    # single tableau, n = 4, N = 3: rows (1,1,2),(2,3,4),(4),() map to
    # rows (1,2,3),(3,4),(),()
    lam = ((3, 3, 1, 0),)
    shape = SkewShapeTuple.straight(lam)
    T = TableauTuple(shape, (((1, 1, 2), (2, 3, 4), (4,), ()),))
    image = complement_bijection(T, M=7)
    assert image.shape.beta == ((3, 2, 0, 0),)
    assert image.rows == (((1, 2, 3), (3, 4), (), ()),)


def test_complement_bijection_involution():
    rng = random.Random(17)
    for _ in range(20):
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = random_straight_tuple(rng, k, n, 2)
        M = n + 2 + rng.randint(0, 1)
        shape = SkewShapeTuple.straight(lam)
        for T in enumerate_ssyt(shape, n)[:4]:
            assert complement_bijection(complement_bijection(T, M), M) == T


def test_complement_bijection_weight():
    lam = ((2, 1), (1, 0))
    n, M = 2, 4
    shape = SkewShapeTuple.straight(lam)
    k = len(lam)
    for T in enumerate_ssyt(shape, n):
        image = complement_bijection(T, M)
        w1 = T.weight_exponents(n)
        w2 = image.weight_exponents(n)
        assert all(a + b == k * (M - n) for a, b in zip(w1, w2))


def test_complement_bijection_coinv_difference():
    from lltlattice.shapes import dtilde_stat

    rng = random.Random(29)
    checked = 0
    while checked < 100:
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = random_straight_tuple(rng, k, n, 2)
        M = n + 2 + rng.randint(0, 1)
        shape = SkewShapeTuple.straight(lam)
        expected = dtilde_stat(lam, M)
        for T in enumerate_ssyt(shape, n)[:3]:
            assert coinv(T) - coinv(complement_bijection(T, M)) == expected
            checked += 1


def test_complement_bijection_rejects_skew():
    with pytest.raises(ValueError):
        complement_bijection(enumerate_ssyt(SECOND, 2)[0], 6)
