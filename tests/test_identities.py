import random
from itertools import chain, product
from operator import add, ge

import pytest

from lltlattice import identities, lattice, shapes
from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.identities import (
    _llt_counts,
    _xy_packing,
    _xy_sum,
    cauchy_kernel_truncated,
    llt,
    partitions_fixed_length,
    shape_tuples_bounded,
    verify_box_skew,
    verify_cauchy,
    verify_cauchy_rot,
    verify_complement,
    verify_engine_equivalence,
    verify_hl,
    verify_inv_coinv,
    verify_lstar,
    verify_modified_hl,
    verify_skew_cauchy,
    verify_symmetry,
)
from lltlattice.shapes import SkewShapeTuple, d_stat, rotate
from lltlattice.tableaux import (
    TableauTuple,
    enumerate_ssyt,
    hl_modified,
    hl_transformed,
    llt_coinv,
    llt_inv,
    schur,
)
from shapegen import random_skew_tuple, random_straight_tuple

FIRST = SkewShapeTuple(((3,), (2,)), ((0,), (0,)))
SECOND = SkewShapeTuple(((3, 3), (3, 1)), ((2, 1), (1, 0)))


def test_symmetry_on_worked_shapes():
    assert verify_symmetry(FIRST, 2).passed
    assert verify_symmetry(SECOND, 2, engine="lattice").passed
    # n = 1 is vacuous
    report = verify_symmetry(FIRST, 1)
    assert report.passed and report.details["equalities_checked"] == 0


def test_symmetry_random():
    rng = random.Random(13)
    for _ in range(8):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=2)
        assert verify_symmetry(shape, 3).passed


def test_inv_coinv():
    assert verify_inv_coinv(FIRST, 2).passed
    assert verify_inv_coinv(SECOND, 2).passed
    empty = SkewShapeTuple(((0,),), ((0,),))
    report = verify_inv_coinv(empty, 2)
    assert report.passed and report.params["m"] == 0


def test_inv_coinv_random():
    rng = random.Random(19)
    for _ in range(10):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3)
        assert verify_inv_coinv(shape, rng.randint(1, 3)).passed


def test_hl_identities():
    assert verify_hl((3, 2), 2).passed
    assert verify_hl((1,), 2).passed
    assert verify_hl((2, 1, 1), 3).passed
    assert verify_modified_hl((2, 2), 2).passed
    assert verify_modified_hl((1,), 1).passed
    assert verify_modified_hl((3, 1), 3).passed


def test_box_skew():
    # the zero tuple: both sides are the rectangle tuple, d = 0
    assert verify_box_skew(((0, 0), (0, 0)), 4, 2).passed
    assert verify_box_skew(((1, 0), (1, 1)), 4, 2).passed
    assert verify_box_skew(((1, 0), (1, 1)), 4, 2, engine="lattice").passed


def test_complement_identity():
    assert verify_complement(((0, 0), (0, 0)), 4, 2).passed
    assert verify_complement(((2, 1), (1, 0)), 4, 2).passed
    assert verify_complement(((2, 1),), 4, 2).passed  # k = 1 Schur duality


def test_complement_random():
    rng = random.Random(23)
    for _ in range(6):
        k, n = rng.randint(1, 2), rng.randint(1, 2)
        lam = random_straight_tuple(rng, k, n, 2)
        M = n + 2 + rng.randint(0, 1)
        assert verify_complement(lam, M, n).passed
        assert verify_box_skew(lam, M, n).passed


def test_lstar():
    assert verify_lstar(((0,),), 1, (2, 3, 4)).passed
    assert verify_lstar(((1, 0), (0, 0)), 2, (3, 4, 5)).passed
    assert verify_lstar(((1, 1), (2, 0)), 2, (4, 5, 6)).passed


def test_cauchy_degree_zero():
    report = verify_cauchy(1, 1, 0)
    assert report.passed


def test_cauchy_one_variable_geometric():
    # n = k = 1 is the one-variable Schur Cauchy kernel 1/(1 - x y)
    assert verify_cauchy(1, 1, 3).passed
    kernel = cauchy_kernel_truncated(1, 1, 3)
    expected = LaurentPoly(
        VarSet(1, 1),
        {(a, a, 0): 1 for a in range(4)},
    )
    assert kernel == expected


def _reference_kernel(n, k, D):
    """The kernel as plain LaurentPoly products of geometric series, each
    product truncated with truncate_x: no code shared with the graded one."""
    vars = VarSet(nx=n, ny=n)
    out = LaurentPoly.one(vars)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for m in range(k):
                unit = (LaurentPoly.variable(vars, i - 1) * LaurentPoly.variable(vars, n + j - 1)
                        * LaurentPoly.t(vars, m))
                series = LaurentPoly.one(vars)
                power = LaurentPoly.one(vars)
                for _ in range(D):
                    power = (power * unit).truncate_x(D)
                    series = series + power
                out = (out * series).truncate_x(D)
    return out


def _tuple_xy_sum(n, summands):
    """Sum of t^a P(X) Q(Y) over (a, P, Q), P and Q in x_1..x_n and t: each
    product term concatenates P's x-exponents, Q's as y, then the t sum.
    The drivers' sums on exponent tuples, kept as their reference."""
    acc = {}
    for a, P, Q in summands:
        for e1, c1 in P.terms.items():
            for e2, c2 in Q.terms.items():
                e = e1[:n] + e2[:n] + (a + e1[n] + e2[n],)
                acc[e] = acc.get(e, 0) + c1 * c2
    return LaurentPoly(VarSet(nx=n, ny=n), acc)


def _tuple_kernel(n, k, D):
    """The graded kernel on exponent tuples: grade d of the running product
    times 1/(1 - u) is grade d plus u times the new grade d - 1."""
    vars = VarSet(nx=n, ny=n)
    graded = [{(0,) * vars.total: 1}] + [{} for _ in range(D)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for m in range(k):
                step = [0] * vars.total
                step[vars.x_index(i)] = step[vars.nx + j - 1] = 1
                step[vars.t_index] = m
                for below, grade in zip(graded, graded[1:]):
                    for e, c in below.items():
                        e = tuple(map(add, e, step))
                        grade[e] = grade.get(e, 0) + c
    terms = {}
    for grade in graded:
        terms |= grade
    return LaurentPoly(vars, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cauchy_kernel_matches_reference(n, k):
    for D in range(5):
        assert cauchy_kernel_truncated(n, k, D) == _reference_kernel(n, k, D)
        assert cauchy_kernel_truncated(n, k, D) == _tuple_kernel(n, k, D)


@pytest.mark.parametrize("nkD, count", [((3, 2, 3), 527), ((2, 2, 4), 225), ((1, 3, 5), 36)])
def test_cauchy_kernel_term_counts(nkD, count):
    assert len(cauchy_kernel_truncated(*nkD).terms) == count


def test_cauchy_kernel_rejects_negative_degree():
    with pytest.raises(ValueError, match="degree bound must be nonnegative"):
        cauchy_kernel_truncated(2, 2, -1)


def test_cauchy_kernel_degree_zero_is_one():
    assert cauchy_kernel_truncated(3, 2, 0) == LaurentPoly.one(VarSet(3, 3))


def test_cauchy_kernel_k_zero_is_one():
    assert cauchy_kernel_truncated(2, 0, 4) == LaurentPoly.one(VarSet(2, 2))


def _reference_embed(p: LaurentPoly, big: VarSet, into_y: bool) -> LaurentPoly:
    """Re-house an n-variable polynomial in the (x, y, t) ring."""
    n = p.vars.nx
    terms = {}
    for e, c in p.terms.items():
        exps = [0] * big.total
        for i in range(n):
            exps[big.nx + i if into_y else big.x_index(i + 1)] = e[i]
        exps[big.t_index] = e[-1]
        terms[tuple(exps)] = c
    return LaurentPoly(big, terms)


@pytest.mark.parametrize("n, k, D", [(1, 1, 3), (1, 3, 2), (2, 2, 2), (3, 1, 2), (2, 2, 0)])
def test_xy_sum_matches_embedded_products(n, k, D):
    big = VarSet(nx=n, ny=n)
    xy = _xy_packing(n, D)
    summands = []
    expected = LaurentPoly.zero(big)
    for i, lam in enumerate(shape_tuples_bounded(k, n, D)):
        shape = SkewShapeTuple.straight(lam)
        other = rotate(lam) if i % 2 else shape
        P, Q = llt(shape, n), llt(other, n)
        a = d_stat(lam) - i     # negative and positive shifts both
        summands.append((a, _llt_counts(shape, xy), _llt_counts(other, xy)))
        expected = expected + LaurentPoly.t(big, a) * _reference_embed(
            P, big, False
        ) * _reference_embed(Q, big, True)
    assert xy.poly(_xy_sum(xy, summands)) == expected
    assert xy.poly(_xy_sum(xy, [])) == LaurentPoly.zero(big)


def test_cauchy_multiplies_no_polynomials(monkeypatch):
    def refuse(self, other):
        raise AssertionError("verify_cauchy multiplied two polynomials")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    assert verify_cauchy(3, 2, 3).passed


@pytest.mark.parametrize("nkD", [(1, 1, 4), (2, 1, 4), (1, 2, 4), (2, 2, 3)])
def test_cauchy_parameter_grid(nkD):
    n, k, D = nkD
    assert verify_cauchy(n, k, D).passed
    assert verify_cauchy_rot(n, k, D).passed


def test_skew_cauchy():
    assert verify_skew_cauchy(((0, 0), (0, 0)), 2, 2, 2).passed  # reduces to plain
    assert verify_skew_cauchy(((1, 0), (0, 0)), 2, 2, 3).passed


@pytest.mark.parametrize("nkD", [(1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3), (1, 3, 4)],
                         ids=lambda nkD: "-".join(map(str, nkD)))
def test_skew_cauchy_kernel_cut_matches_truncated_product(nkD):
    # base is homogeneous of x-degree |mu|, so cutting the kernel at D - |mu|
    # forms exactly the terms that truncating the full product at D keeps
    n, k, D = nkD
    for mu in shape_tuples_bounded(k, n, D):
        L_mu = llt(mu, n)
        base = _tuple_xy_sum(n, [(d_stat(mu), L_mu, LaurentPoly.one(L_mu.vars))])
        full = (base * cauchy_kernel_truncated(n, k, D)).truncate_x(D)
        size = sum(map(sum, mu))
        assert base * cauchy_kernel_truncated(n, k, D - size) == full


def test_skew_cauchy_cuts_kernel_at_remaining_degree(monkeypatch):
    degrees = []
    kernel = identities.cauchy_kernel_truncated

    def spy(n, k, D):
        degrees.append(D)
        return kernel(n, k, D)

    monkeypatch.setattr(identities, "cauchy_kernel_truncated", spy)
    assert verify_skew_cauchy(((1, 0), (0, 0)), 2, 2, 3).passed
    assert degrees == [2]


def test_cauchy_rot_checks_each_generated_tuple_at_most_once(monkeypatch):
    # the driver builds every lam itself: llt, rotate, complement and d_stat
    # take it (and its rotation and complement) without checking it again
    calls = []
    check = shapes.check_shape_tuple

    def spy(shape):
        calls.append(shape)
        return check(shape)

    monkeypatch.setattr(shapes, "check_shape_tuple", spy)
    assert verify_cauchy_rot(2, 2, 3).passed
    assert len(calls) <= len(shape_tuples_bounded(2, 2, 3))


@pytest.mark.parametrize("verify, args, calls", [
    (verify_cauchy, (2, 2, 3), 16),  # L_lam once for each of the 16 lam
    (verify_cauchy_rot, (2, 2, 3), 32),  # L_lam and its rotation
    # L_lam and L_lam/mu for the 10 lam containing mu, then L_mu
    (verify_skew_cauchy, (((1, 0), (0, 0)), 2, 2, 3), 21),
], ids=["cauchy", "cauchy-rot", "skew-cauchy"])
def test_cauchy_drivers_llt_calls(verify, args, calls, monkeypatch):
    # the shared shape loop computes L_lam only where a driver needs it, and
    # every L the drivers take comes through the one per-lam seam
    seen = []
    real = identities._llt_counts

    def spy(*a, **kw):
        seen.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(identities, "_llt_counts", spy)
    monkeypatch.setattr(identities, "llt", None)   # the tableau route never calls it
    assert verify(*args).passed
    assert len(seen) == calls


# Every (n, k, D) that this file runs a Cauchy driver or kernel at.  The
# k = 1 cases with n = 2 hold lam = ((D, 0),), whose L_lam(X) L_lam(Y) has
# the term x1^D y1^D: there an x- and a y-exponent reach D exactly, so a
# packed field too narrow for D carries and the sides differ.
CAUCHY_CASES = [(1, 1, 0), (1, 1, 3), (1, 1, 4), (1, 2, 3), (1, 2, 4), (1, 3, 2), (1, 3, 4),
                (2, 1, 3), (2, 1, 4), (2, 2, 0), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 2, 3)]


@pytest.fixture
def first_sides(monkeypatch):
    """The (lhs, rhs) of the first pair of every report built while it is live."""
    sides = []
    real = identities._check_pairs

    def spy(name, params, pairs, *args, **kwargs):
        sides.append(pairs[0][1:])
        return real(name, params, pairs, *args, **kwargs)

    monkeypatch.setattr(identities, "_check_pairs", spy)
    return sides


@pytest.mark.parametrize("n, k, D", CAUCHY_CASES)
def test_cauchy_sides_match_tuple_reference(n, k, D, first_sides):
    lams = shape_tuples_bounded(k, n, D)
    L = {lam: llt(lam, n) for lam in lams}
    kernel = _tuple_kernel(n, k, D)
    mu = shape_tuples_bounded(k, n, min(D, 1))[0]   # one box, or none at D = 0
    inside = [lam for lam in lams if all(map(ge, chain(*lam), chain(*mu)))]
    base = _tuple_xy_sum(n, [(d_stat(mu), llt(mu, n), LaurentPoly.one(VarSet(nx=n)))])
    assert verify_cauchy(n, k, D).passed
    assert verify_cauchy_rot(n, k, D).passed
    assert verify_skew_cauchy(mu, n, k, D).passed
    assert first_sides == [
        (_tuple_xy_sum(n, [(d_stat(lam), L[lam], L[lam]) for lam in lams]), kernel),
        (_tuple_xy_sum(n, [(0, L[lam], llt(rotate(lam), n)) for lam in lams]), kernel),
        (_tuple_xy_sum(n, [(d_stat(lam), L[lam], llt(SkewShapeTuple(lam, mu), n)) for lam in inside]),
         base * _tuple_kernel(n, k, D - sum(map(sum, mu)))),
    ]
    if k == 1 and n == 2 and D:
        assert first_sides[0][0].terms[(D, 0, D, 0, 0)] == 1


@pytest.mark.parametrize("engine", ["lattice", "both"])
def test_cauchy_engines_give_the_tableaux_report(engine, first_sides):
    for nkD in [(1, 2, 3), (2, 1, 4), (2, 2, 3)]:
        expected = verify_cauchy(*nkD).to_json_dict()
        expected["params"]["engine"] = engine
        assert verify_cauchy(*nkD, engine=engine).to_json_dict() == expected
        assert first_sides[-1] == first_sides[-2]


def test_cauchy_both_engines_still_raise_a_mismatch(monkeypatch):
    real = lattice.partition_function
    monkeypatch.setattr(identities, "partition_function", lambda spec: real(spec) + 1)
    assert verify_cauchy(1, 1, 2, engine="lattice").status == "FAIL"
    with pytest.raises(identities.EngineMismatch):
        verify_cauchy(1, 1, 2, engine="both")


def test_cauchy_wrong_kernel_fails_with_both_sides_decoded(monkeypatch):
    n, k, D = 2, 2, 3
    lams = shape_tuples_bounded(k, n, D)
    extra = LaurentPoly.t(VarSet(nx=n, ny=n))   # not a term of any kernel

    def wrong(n, k, D):
        return cauchy_kernel_truncated(n, k, D) + extra

    monkeypatch.setattr(identities, "cauchy_kernel_truncated", wrong)
    mu = ((1, 0), (0, 0))
    inside = [lam for lam in lams if all(map(ge, chain(*lam), chain(*mu)))]
    base = _tuple_xy_sum(n, [(d_stat(mu), llt(mu, n), LaurentPoly.one(VarSet(nx=n)))])
    expected = {
        verify_cauchy: ("sum vs kernel", [(d_stat(lam), llt(lam, n), llt(lam, n)) for lam in lams],
                        wrong(n, k, D)),
        verify_cauchy_rot: ("rotated sum vs kernel", [(0, llt(lam, n), llt(rotate(lam), n))
                                                      for lam in lams], wrong(n, k, D)),
        verify_skew_cauchy: ("skew sum vs kernel", [
            (d_stat(lam), llt(lam, n), llt(SkewShapeTuple(lam, mu), n)) for lam in inside
        ], base * wrong(n, k, D - 1)),
    }
    for verify, (context, summands, rhs) in expected.items():
        report = verify(mu, n, k, D) if verify is verify_skew_cauchy else verify(n, k, D)
        assert report.status == "FAIL"
        assert report.witness == {"context": context,
                                  "lhs": _tuple_xy_sum(n, summands).to_json_dict(),
                                  "rhs": rhs.to_json_dict()}


def test_cauchy_rot_relation_witness_is_in_x_and_t(monkeypatch):
    # d(comp) and d(lam) both one too high: their check passes and the
    # rotation relation fails at the first lam; its witness is decoded in
    # x_1..x_n and t, as L_lam is
    real = identities._d_stat
    monkeypatch.setattr(identities, "_d_stat", lambda lam: real(lam) + 1)
    n, lam = 2, shape_tuples_bounded(2, 2, 3)[0]
    P = llt(lam, n)
    report = verify_cauchy_rot(n, 2, 3)
    assert report.status == "FAIL"
    assert report.witness == {
        "context": f"rotation relation at {lam}",
        "lhs": llt(rotate(lam), n).to_json_dict(),
        "rhs": (LaurentPoly.t(P.vars, d_stat(lam) + 1) * P).to_json_dict(),
    }


def test_cauchy_rot_reports_a_d_mismatch(monkeypatch):
    # a wrong complement breaks d(comp) = d(lam) at the first lam; the
    # witness holds both values, and no rotation relation is checked first
    monkeypatch.setattr(identities, "_complement", lambda lam, width: ((0, 0), (1, 1)))
    lam = shape_tuples_bounded(2, 2, 3)[0]
    assert d_stat(lam) != d_stat(((0, 0), (1, 1))) == 1
    report = verify_cauchy_rot(2, 2, 3)
    assert report.status == "FAIL"
    assert report.witness == {"context": f"d(comp)=d(lam) at {lam}", "lhs": 1, "rhs": d_stat(lam)}


def test_complement_checks_lam_once(monkeypatch):
    # the driver checks lam itself; its complement and d-tilde take it as valid
    lam, M, n = ((2, 1), (1, 0)), 4, 2
    dtilde = shapes.dtilde_stat(lam, M)
    calls = []
    check = shapes.check_box_tuple

    def spy(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    for module in (identities, shapes):
        monkeypatch.setattr(module, "check_box_tuple", spy)
    report = verify_complement(lam, M, n, engine="both")
    assert report.passed and report.details == {"dtilde": dtilde, "equalities_checked": 1}
    assert len(calls) == 1


def test_box_skew_reports_a_d_mismatch(monkeypatch):
    # a wrong d(complement) leaves the polynomial relation true; the witness
    # holds both d values as integers
    lam, M, n = ((1, 0), (1, 1)), 4, 2
    comp = shapes.complement(lam, M, n)
    assert comp != lam and verify_box_skew(lam, M, n).passed
    real = identities._d_stat
    monkeypatch.setattr(identities, "_d_stat", lambda shape: real(shape) + (shape == comp))
    report = verify_box_skew(lam, M, n)
    assert report.status == "FAIL"
    assert report.witness == {
        "context": "d(complement) != d(lam)", "lhs": d_stat(comp) + 1, "rhs": d_stat(lam)
    }


def test_skew_cauchy_rejects_oversized_mu():
    with pytest.raises(ValueError):
        verify_skew_cauchy(((2, 2), (0, 0)), 2, 2, 3)


def test_skew_cauchy_refuses_a_mu_of_another_k():
    with pytest.raises(ValueError, match="^mu must have 2 components$"):
        verify_skew_cauchy(((1, 0),), 2, 2, 3)


def test_llt_refuses_an_unknown_engine():
    with pytest.raises(ValueError, match="^unknown engine 'nope'$"):
        llt(((1,),), 1, "nope")


def test_fail_reports_witness():
    # engineered failure: compare polynomials of two different shapes
    from lltlattice.identities import _check_pairs
    from lltlattice.tableaux import llt_coinv

    a = llt_coinv(FIRST, 2)
    b = llt_coinv(SECOND, 2)
    report = _check_pairs("demo", {}, [("ok", a, a), ("bad", a, b)])
    assert not report.passed
    assert report.witness["context"] == "bad"
    assert report.witness["lhs"] == a.to_json_dict()
    assert report.witness["rhs"] == b.to_json_dict()


def test_partition_enumeration_helpers():
    ps = partitions_fixed_length(2, 2)
    assert set(ps) == {(0, 0), (1, 0), (1, 1), (2, 0)}
    # lexicographically decreasing: shape_tuples_bounded, and with it every
    # Cauchy sum and the rotated driver's pair order, follow this order
    assert ps == [(2, 0), (1, 1), (1, 0), (0, 0)]
    assert partitions_fixed_length(3, 3) == [
        (3, 0, 0), (2, 1, 0), (2, 0, 0), (1, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)
    ]
    assert partitions_fixed_length(0, 2) == [()]
    assert partitions_fixed_length(2, 0) == [(0, 0)]
    assert shape_tuples_bounded(2, 1, 1) == [((1,), (0,)), ((0,), (1,)), ((0,), (0,))]
    tuples = shape_tuples_bounded(2, 1, 2)
    assert ((2,), (0,)) in tuples and ((1,), (1,)) in tuples
    assert all(sum(sum(p) for p in t) <= 2 for t in tuples)
    for k in range(4):
        for n in range(3):
            for D in range(4):
                product_order = [
                    lam for lam in product(partitions_fixed_length(n, D), repeat=k)
                    if sum(map(sum, lam)) <= D
                ]
                assert shape_tuples_bounded(k, n, D) == product_order


def test_engine_equivalence_driver():
    report = verify_engine_equivalence()
    assert report.passed
    assert report.params == {"components": [1, 2], "max_part": 2, "max_rows": 2, "n": [1, 2, 3]}
    assert report.details == {"equalities_checked": 2106}


def test_engine_equivalence_names_the_failing_tuple(monkeypatch):
    shape, n = SkewShapeTuple(((2, 1), (1,)), ((1, 0), (0,))), 2
    bad = lattice.build_lattice(shape, n)
    real = identities.partition_function
    monkeypatch.setattr(identities, "partition_function",
                        lambda spec: real(spec) + real(spec) if spec == bad else real(spec))
    report = verify_engine_equivalence()
    assert report.status == "FAIL"
    assert report.witness["context"] == "2,1;1/1,0;0, n=2"
    assert report.witness["lhs"] == llt(shape, n).to_json_dict()


@pytest.mark.parametrize("verify, mu", [(verify_cauchy, ()), (verify_cauchy_rot, ()),
                                        (verify_skew_cauchy, (((0,),),))],
                         ids=["cauchy", "cauchy-rot", "skew-cauchy"])
@pytest.mark.parametrize("n, k, D, message", [
    (0, 1, 2, "n must be at least 1"),
    (1, 0, 2, "k must be at least 1"),
    (1, 1, -1, "D must be at least 0"),
])
def test_cauchy_drivers_refuse_bad_parameters(verify, mu, n, k, D, message):
    # checked before any work: a skew-cauchy mu of 1 part would otherwise fail
    # against n = 0 and against k = 0 first
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify(*mu, n, k, D)


def test_lstar_refuses_an_empty_M_list():
    with pytest.raises(ValueError, match="^the M list must hold at least one M$"):
        verify_lstar(((1, 0),), 2, ())


def test_non_integer_parts_and_Ms_are_refused():
    # int() would run these as x1^2 and as M = 4
    with pytest.raises(ValueError, match=r"^parts must be integers, not \(2\.9,\)$"):
        llt(((2.9,),), 1)
    with pytest.raises(ValueError, match=r"^every M must be an integer, not \[4\.9\]$"):
        verify_lstar(((1, 0),), 2, [4.9])
    # M = 4.9 would give a box 2.9 wide, n = 2.0 or 2.5 a float row count and
    # a float r or ncols a float shift in the row DP; each is named before any
    # partition or lattice is derived from it
    for call, message in (
        (lambda: shapes.complement(((1, 0),), 4.9, 2), "M must be an integer, not 4.9"),
        (lambda: shapes.check_box_tuple(((1, 0),), 2, 4.9), "M must be an integer, not 4.9"),
        (lambda: verify_box_skew(((1, 0),), 4.9, 2), "M must be an integer, not 4.9"),
        (lambda: lattice.build_box_lattice(((1, 0),), 4.9, 2), "M must be an integer, not 4.9"),
        (lambda: llt(((2, 1),), 2.0, "lattice"), "n must be an integer, not 2.0"),
        (lambda: shapes.check_n(2.5), "n must be an integer, not 2.5"),
        (lambda: lattice.LatticeSpec(0.0, 2, ((0,),), ((1,),), (0,)), "r must be an integer, not 0.0"),
        (lambda: lattice.LatticeSpec(0, 2.0, ((0,),), ((1,),), (0,)),
         "ncols must be an integer, not 2.0"),
        # a float k, D or trials would reach range() or int.bit_length
        (lambda: verify_cauchy(1, 1.5, 2), "k must be an integer, not 1.5"),
        (lambda: verify_cauchy(1, "1", 2), "k must be an integer, not '1'"),
        (lambda: verify_cauchy(1, 1, 2.5), "D must be an integer, not 2.5"),
        (lambda: verify_cauchy_rot(1, 1, 2.5), "D must be an integer, not 2.5"),
        (lambda: cauchy_kernel_truncated(1, 1, 2.5), "D must be an integer, not 2.5"),
        (lambda: cauchy_kernel_truncated(1, 1.0, 2), "k must be an integer, not 1.0"),
        (lambda: cauchy_kernel_truncated(1.0, 1, 2), "n must be an integer, not 1.0"),
        # a bare partition where a tuple of them is expected (llt, straight
        # and rotate: test_straight_rejects_bad_input)
        (lambda: verify_symmetry((3,), 2), "parts must be integers, not 3"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$".replace(".", r"\.")):
            call()


@pytest.mark.parametrize("verify, args", [
    (verify_box_skew, (((1, 0),), 1, 2)),
    (verify_complement, (((1, 0),), 1, 2)),
    (verify_lstar, (((1, 0),), 2, (3, 1))),
], ids=["box-skew", "complement", "lstar"])
def test_box_drivers_refuse_M_below_n(verify, args):
    # checked before lam is fitted to the box, which would name a box of
    # width M - n = -1
    with pytest.raises(ValueError, match="^M must be at least n, not M = 1 with n = 2$"):
        verify(*args)


@pytest.mark.parametrize("verify, args", [
    (verify_box_skew, (((1, 0),), 4, 0)),
    (verify_complement, (((1, 0),), 4, 0)),
    (verify_lstar, (((1, 0),), 0, (3,))),
], ids=["box-skew", "complement", "lstar"])
def test_box_drivers_refuse_n_below_1(verify, args):
    # checked before M and before lam is fitted to an n-row box
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        verify(*args)


def test_lstar_fits_lam_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(identities, "llt", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^part 3 exceeds box width 1$"):
        verify_lstar(((3, 0),), 2, (3,))
    assert calls == []


ONE_BOX = SkewShapeTuple.straight(((1,),))


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("call", [
    lambda n: llt(FIRST, n),
    lambda n: llt_coinv(FIRST, n),
    lambda n: llt_inv(FIRST, n),
    lambda n: enumerate_ssyt(FIRST, n),
    lambda n: schur((2, 1), n),
    lambda n: hl_transformed((2, 1), n),
    lambda n: hl_modified((2, 1), n),
    lambda n: lattice.build_lattice(ONE_BOX, n),
    lambda n: lattice.ssyt_to_config(TableauTuple(ONE_BOX, (((1,),),)), n),
    lambda n: verify_symmetry(FIRST, n),
    lambda n: verify_hl((2, 1), n),
    lambda n: verify_modified_hl((2, 1), n),
    # a box tuple whose components have no parts has n = 0 rows
    lambda n: lattice.build_box_lattice(((),), 0, n),
    lambda n: shapes.complement(((),), 0, n),
    lambda n: d_stat(((),)),
    lambda n: shapes.dtilde_stat(((),), n),
], ids=["llt", "llt_coinv", "llt_inv", "enumerate_ssyt", "schur", "hl_transformed",
        "hl_modified", "build_lattice", "ssyt_to_config", "verify_symmetry", "verify_hl",
        "verify_modified_hl", "build_box_lattice", "complement", "d_stat", "dtilde_stat"])
def test_variable_count_below_1_is_refused(call, n):
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        call(n)


def test_cross_engine_verifiers():
    assert verify_hl((2, 1), 2, engine="both").passed
    assert verify_complement(((1, 0), (1, 1)), 4, 2, engine="both").passed
    assert verify_cauchy(1, 2, 3, engine="lattice").passed
    assert verify_lstar(((1, 0),), 2, (3, 4), engine="both").passed
