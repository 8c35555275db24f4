import random

import pytest

from lltlattice import identities
from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.identities import (
    _as_skew,
    _embed,
    _llt_cached,
    cauchy_kernel_truncated,
    partitions_fixed_length,
    random_skew_tuple,
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
from lltlattice.shapes import SkewShapeTuple, d_stat, triples
from lltlattice.tableaux import llt

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
    from lltlattice.identities import random_straight_tuple

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
        VarSet(1, 1, True),
        {(a, a, 0): 1 for a in range(4)},
    )
    assert kernel == expected


def _reference_kernel(n, k, D):
    """The kernel as plain LaurentPoly products of geometric series, each
    product truncated with truncate_x: no code shared with the graded one."""
    vars = VarSet(nx=n, ny=n, has_t=True)
    out = LaurentPoly.one(vars)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for m in range(k):
                unit = LaurentPoly.x(vars, i) * LaurentPoly.y(vars, j) * LaurentPoly.t(vars, m)
                series = LaurentPoly.one(vars)
                power = LaurentPoly.one(vars)
                for _ in range(D):
                    power = (power * unit).truncate_x(D)
                    series = series + power
                out = (out * series).truncate_x(D)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cauchy_kernel_matches_reference(n, k):
    for D in range(5):
        assert cauchy_kernel_truncated(n, k, D) == _reference_kernel(n, k, D)


@pytest.mark.parametrize("nkD, count", [((3, 2, 3), 527), ((2, 2, 4), 225), ((1, 3, 5), 36)])
def test_cauchy_kernel_term_counts(nkD, count):
    assert len(cauchy_kernel_truncated(*nkD).terms) == count


def test_cauchy_kernel_rejects_negative_degree():
    with pytest.raises(ValueError, match="degree bound must be nonnegative"):
        cauchy_kernel_truncated(2, 2, -1)


def test_cauchy_kernel_degree_zero_is_one():
    assert cauchy_kernel_truncated(3, 2, 0) == LaurentPoly.one(VarSet(3, 3, True))


def test_cauchy_kernel_k_zero_is_one():
    assert cauchy_kernel_truncated(2, 0, 4) == LaurentPoly.one(VarSet(2, 2, True))


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
    big = VarSet(nx=n, ny=n)
    for mu in shape_tuples_bounded(k, n, D):
        base = LaurentPoly.t(big, d_stat(mu)) * _embed(llt(_as_skew(mu), n), big, False)
        full = (base * cauchy_kernel_truncated(n, k, D, big)).truncate_x(D)
        size = sum(map(sum, mu))
        assert base * cauchy_kernel_truncated(n, k, D - size, big) == full


def test_skew_cauchy_cuts_kernel_at_remaining_degree(monkeypatch):
    degrees = []
    kernel = identities.cauchy_kernel_truncated

    def spy(n, k, D, vars=None):
        degrees.append(D)
        return kernel(n, k, D, vars)

    monkeypatch.setattr(identities, "cauchy_kernel_truncated", spy)
    assert verify_skew_cauchy(((1, 0), (0, 0)), 2, 2, 3).passed
    assert degrees == [2]


@pytest.mark.parametrize("cached", [triples, _llt_cached], ids=["triples", "_llt_cached"])
def test_caches_are_bounded(cached):
    assert cached.cache_info().maxsize is not None


def test_skew_cauchy_rejects_oversized_mu():
    with pytest.raises(ValueError):
        verify_skew_cauchy(((2, 2), (0, 0)), 2, 2, 3)


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
    tuples = shape_tuples_bounded(2, 1, 2)
    assert ((2,), (0,)) in tuples and ((1,), (1,)) in tuples
    assert all(sum(sum(p) for p in t) <= 2 for t in tuples)


def test_engine_equivalence_driver():
    assert verify_engine_equivalence(10, seed=3).passed


def test_cross_engine_verifiers():
    assert verify_hl((2, 1), 2, engine="both").passed
    assert verify_complement(((1, 0), (1, 1)), 4, 2, engine="both").passed
    assert verify_cauchy(1, 2, 3, engine="lattice").passed
    assert verify_lstar(((1, 0),), 2, (3, 4), engine="both").passed
