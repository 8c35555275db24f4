import random
from collections import Counter
from itertools import accumulate, permutations
from math import comb, prod
from operator import sub

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lltlattice import shapes, tableaux
from lltlattice.algebra import LaurentPoly, VarSet, _Packing
from lltlattice.identities import (
    _xy_packing,
    shape_tuples_bounded,
    verify_cauchy,
    verify_cauchy_rot,
    verify_skew_cauchy,
)
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
import reference
from reference import coinv, coinv_table, decode, inv_triples, triples
from shapegen import random_partition, random_skew_tuple, random_straight_tuple

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


def _many_component_tuple(rng, k, n):
    """k components of up to 2 rows and parts <= 2, each with at least two
    fillings in [n] and at most 600 tuples in all."""
    while True:
        parts = []
        while len(parts) < k:
            part = random_skew_tuple(rng, max_k=1, max_rows=2, max_part=2)
            if len(_component_fillings(part.beta[0], part.gamma[0], n)) >= 2:
                parts.append(part)
        if prod(len(_component_fillings(p.beta[0], p.gamma[0], n)) for p in parts) <= 600:
            return SkewShapeTuple(tuple(p.beta[0] for p in parts), tuple(p.gamma[0] for p in parts))


@pytest.mark.parametrize("few", [0, 10**9], ids=["tables", "direct"])
def test_llt_coinv_four_and_five_components(monkeypatch, few):
    # the fold recurses above its last level only from k = 4 on
    monkeypatch.setattr(tableaux, "_FEW_TUPLES", few)
    rng = random.Random(11)
    for k in (4, 5) * 4:
        n = rng.randint(2, 3)
        shape = _many_component_tuple(rng, k, n)
        P = llt_coinv(shape, n)
        assert P == _reference_llt_coinv(shape, n)
        assert P == partition_function(build_lattice(shape, n))


def test_many_empty_components_match_the_lattice():
    # 1,100 components with one filling each, stepped through without
    # recursing; each adds one coinversion against the row of 3
    shape = SkewShapeTuple.straight(((3,), *[(0,)] * 1100))
    P = llt_coinv(shape, 3)
    assert P == partition_function(build_lattice(shape, 3))
    assert P == reference.t(P.vars, 1100) * llt_coinv(SkewShapeTuple.straight(((3,),)), 3)


def test_one_filling_components_among_others():
    # 3 to 5 components, at least one with a single filling (empty, or a
    # column of n cells), more than _FEW_TUPLES tuples: the tables count
    # them, and the fold steps through the single fillings first
    rng = random.Random(13)
    for _ in range(12):
        k, n = rng.randint(3, 5), rng.randint(2, 3)
        single = rng.randint(1, k - 2)
        comps = []
        while prod(len(_component_fillings(b, g, n)) for b, g in comps) <= tableaux._FEW_TUPLES:
            shape = _many_component_tuple(rng, k - single, n)
            comps = list(zip(shape.beta, shape.gamma))
        for _ in range(single):
            part = random_partition(rng, 2, 2)
            one = rng.choice([(part, part), ((1,) * n, (0,) * n)])
            assert len(_component_fillings(*one, n)) == 1
            comps.insert(rng.randint(0, len(comps)), one)
        shape = SkewShapeTuple(*map(tuple, zip(*comps)))
        P = llt_coinv(shape, n)
        assert P == _reference_llt_coinv(shape, n)
        assert P == partition_function(build_lattice(shape, n))


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
    assert [(a, b) for a, b, _ in pairs] == sorted(reference, key=lambda pair: pair[::-1])
    assert {(a, b): Counter(trips) for a, b, trips in pairs} == {
        pair: Counter(trips) for pair, trips in reference.items()
    }
    assert m_bruteforce(shape) == len(triples(shape))


def test_pair_triples_reads_each_distinct_pair_once_per_call(monkeypatch):
    # a tuple may repeat a component (hl's rows, compute's empty components):
    # each distinct ordered pair is enumerated once in a call, and again in
    # the next call, which starts from nothing
    real, calls = shapes._pair_positions, []
    monkeypatch.setattr(shapes, "_pair_positions", lambda *comps: calls.append(comps) or real(*comps))
    shape = SkewShapeTuple.straight(((3,),) + ((0,),) * 40)
    expected = [(0, b, real((3,), (0,), (0,), (0,))) for b in range(1, 41)]
    assert real((0,), (0,), (0,), (0,)) == () and expected[0][2]
    assert _pair_triples(shape) == expected
    assert calls == [((3,), (0,), (0,), (0,)), ((0,), (0,), (0,), (0,))]
    assert _pair_triples(shape) == expected and len(calls) == 4


# one v cell, so each row of the table is keyed by a plain entry
ONE_V_CELL = SkewShapeTuple(((1,), (1,)), ((0,), (0,)))
# v cells 0 and 1 of a's three cells: its 8 fillings at n = 3 hold 5 distinct
# pairs of v-entries, so some of them share a row
SHARED_V_ENTRIES = SkewShapeTuple(((2, 1), (1,)), ((0, 0), (0,)))


@pytest.mark.parametrize("unit", [1, 2**9])
def test_coinv_table_matches_entry_by_entry_count(unit):
    rng = random.Random(31)
    drawn = [(random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3), rng.randint(1, 4))
             for _ in range(60)]
    v_cells, shared, checked = set(), False, 0
    for shape, n in [(ONE_V_CELL, 3), (SHARED_V_ENTRIES, 3), *drawn]:
        reference_trips = _reference_pair_triples(shape)
        for a, b, trips in _pair_triples(shape):
            fa = _component_fillings(shape.beta[a], shape.gamma[a], n)
            fb = _component_fillings(shape.beta[b], shape.gamma[b], n)
            table = tableaux._coinv_table(fa, fb, trips, n, unit)
            assert table == coinv_table(fa, fb, reference_trips[a, b], n, unit)
            positions = sorted({pos_v for pos_v, _, _ in trips})
            v_cells.add(len(positions))
            at_v = {tuple(f[pos] for pos in positions) for f in fa}
            shared |= len(positions) > 1 and len(at_v) < len(fa)
            checked += len(fa) > 1
    # the inputs reach both kinds of row key, shared rows, and enough pairs
    # with two or more fillings of a, where a shifted spread shows
    assert 1 in v_cells and max(v_cells) > 1 and shared and checked >= 20


def test_llt_coinv_golden_without_triple_records():
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
    # no value is kept from one call to the next: a shuffled sweep of
    # llt_coinv and the three Cauchy drivers, run twice in one process in two
    # different orders, gives the same results both times
    rng = random.Random(43)
    sweep = [(llt_coinv, SkewShapeTuple.straight(lam), 2) for lam in shape_tuples_bounded(3, 2, 3)]
    sweep += [(llt_coinv, random_skew_tuple(rng), rng.randint(1, 3)) for _ in range(40)]
    sweep += [(verify, n, k, D) for verify in (verify_cauchy, verify_cauchy_rot)
              for n, k, D in [(1, 2, 4), (2, 2, 3)]]
    sweep += [(verify_skew_cauchy, ((1, 0), (0, 0)), 2, 2, 3)]
    orders, results = [], []
    for seed in (1, 2):
        orders.append(random.Random(seed).sample(range(len(sweep)), len(sweep)))
        results.append({i: sweep[i][0](*sweep[i][1:]) for i in orders[-1]})
    assert orders[0] != orders[1]
    assert results[0] == results[1]
    assert all(results[0][i].passed for i in range(len(sweep) - 5, len(sweep)))


@pytest.mark.parametrize("shape, n", [
    (SkewShapeTuple.straight(((2, 1), (1, 0))), 2),          # 4 tuples: counted directly
    (SkewShapeTuple.straight(((3, 1), (2, 2))), 3),          # 90 tuples: by the tables
])
def test_weights_are_cached_per_field_width(shape, n):
    # llt_coinv's layout (bound: the cell count) and the Cauchy drivers'
    # (bound: D) give the x fields different widths; each count is the
    # reference count, by _coinv_counts and by a component table of the
    # layout, whose weights memo the third count reads again
    cells = _Packing(VarSet(nx=n), shape.cell_count())
    xy = _xy_packing(n, 16)
    assert cells.shifts.step != xy.shifts.step
    reference = Counter((*T.weight_exponents(n), coinv(T)) for T in enumerate_ssyt(shape, n))
    expected = {cells: reference,
                xy: Counter({(*e[:-1], *(0,) * n, e[-1]): c for e, c in reference.items()})}
    tables = {packing: tableaux._ComponentTable(packing) for packing in expected}
    for packing in (cells, xy, cells):
        table = tables[packing]
        ids = tuple(map(table.ids.__getitem__, zip(shape.beta, shape.gamma)))
        assert decode(packing, tableaux._coinv_counts(shape, packing)) == expected[packing]
        assert decode(packing, table.counts(ids)) == expected[packing]
        assert sorted(table.weights) == sorted(set(ids))


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
    assert llt_coinv(EX2, 3) != LaurentPoly(VarSet(nx=3))


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
        assert L == reference.t(L.vars, m) * G.invert_t()


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
    assert llt_inv(shape, 2) == reference.one(VarSet(nx=2))


def test_llt_at_t_one_is_product_of_skew_schurs():
    rng = random.Random(23)
    for _ in range(10):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=2)
        n = 2
        P = llt_coinv(shape, n)
        ones = {P.vars.t_index: (1, (0,) * P.vars.total)}
        prod = reference.one(P.vars)
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
    assert H == reference.variable(VarSet(nx=1), 0)


def test_hl_from_worked_polynomial():
    # L_{((3),(2))} = t^{inv(3,2)} H_{(3,2)} with inv = 1
    H = hl_transformed((3, 2), 2)
    L = llt_coinv(FIRST, 2)
    assert L == reference.t(H.vars, 1) * H


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
        assert llt_coinv(rows, 3) == reference.t(H.vars, inv_stat(beta)) * H


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
        tableaux = enumerate_ssyt(shape, n)
        assert tableaux  # a straight shape has a filling; none would loop forever
        for T in tableaux[:3]:
            assert coinv(T) - coinv(complement_bijection(T, M)) == expected
            checked += 1


def test_complement_bijection_rejects_skew():
    with pytest.raises(ValueError):
        complement_bijection(enumerate_ssyt(SECOND, 2)[0], 6)
