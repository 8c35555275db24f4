"""Acceptance suite: one test per criterion, each printing a PASS line.

All equality checks are exact (integer coefficients, tolerance zero).  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from itertools import permutations

from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.identities import (
    verify_box_skew,
    verify_cauchy,
    verify_cauchy_rot,
    verify_complement,
    verify_hl,
    verify_lstar,
    verify_modified_hl,
    verify_skew_cauchy,
    verify_symmetry,
)
from lltlattice.lattice import (
    build_box_lattice,
    build_lattice,
    enumerate_configs,
    face_weight_exponents,
    mask_of,
    partition_function,
    rotate_config,
)
from lltlattice.shapes import (
    SkewShapeTuple,
    d_stat,
    dtilde_stat,
    inv_stat,
    m_bruteforce,
    m_formula,
    n_stat,
)
from lltlattice.tableaux import complement_bijection, enumerate_ssyt, llt_coinv
from lltlattice.yangbaxter import l_recursive, r_recursive, r_weight, ybe_check
from reference import coinv, l_weight, ybe_droite, ybe_gauche
from shapegen import random_skew_tuple, random_straight_tuple

FIRST = SkewShapeTuple(((3,), (2,)), ((0,), (0,)))
SECOND = SkewShapeTuple(((3, 3), (3, 1)), ((2, 1), (1, 0)))


def _golden_first(vars):
    terms = {(2, 3, 1): 1, (3, 2, 1): 1}
    for ab in ((1, 4), (2, 3), (3, 2), (4, 1)):
        terms[ab + (2,)] = 1
    for ab in ((0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0)):
        terms[ab + (3,)] = 1
    return LaurentPoly(vars, terms)


def _golden_second(vars):
    return LaurentPoly(
        vars,
        {(2, 4, 1): 1, (3, 3, 1): 1, (4, 2, 1): 1,
         (1, 5, 2): 1, (2, 4, 2): 2, (3, 3, 2): 3, (4, 2, 2): 2, (5, 1, 2): 1},
    )


def _announce(num, label, started):
    print(f"[acceptance] criterion {num} ({label}): PASS ({time.time() - started:.1f}s)")


def test_criterion_1_golden_polynomials():
    started = time.time()
    vars = VarSet(nx=2)
    for shape, golden in ((FIRST, _golden_first(vars)), (SECOND, _golden_second(vars))):
        t0 = time.time()
        assert llt_coinv(shape, 2) == golden
        assert time.time() - t0 < 1.0
        t0 = time.time()
        assert partition_function(build_lattice(shape, 2)) == golden
        assert time.time() - t0 < 1.0
    _announce(1, "golden polynomials, both engines", started)


def test_criterion_2_face_weight_goldens():
    started = time.time()
    # single face x^2 t^3
    assert l_weight(3, (1, 0, 0), (0, 1, 1), (0, 0, 1), (1, 1, 0)) == LaurentPoly.monomial(
        VarSet(nx=1), 1, (2, 3)
    )
    # the four-face configuration with weight x1^3 x2^2 x3^2 t^8
    faces = [
        ((1, 0, 0), (0, 1, 1), (0, 0, 1), (1, 1, 0), 1),
        ((0, 0, 0), (1, 1, 0), (0, 1, 0), (1, 0, 0), 1),
        ((0, 0, 1), (1, 1, 0), (0, 1, 0), (1, 0, 1), 2),
        ((0, 1, 0), (1, 0, 1), (0, 1, 0), (1, 0, 1), 3),
    ]
    vars = VarSet(nx=3)
    product = LaurentPoly.one(vars)
    for I, J, K, L, xi in faces:
        xe, te = face_weight_exponents(mask_of(I), mask_of(J), mask_of(K), mask_of(L))
        exps = [0, 0, 0, te]
        exps[xi - 1] = xe
        product = product * LaurentPoly.monomial(vars, 1, exps)
    assert product == LaurentPoly.monomial(vars, 1, (3, 2, 2, 8))

    # the two-color tables: 25 face weights and 25 crossing weights
    states_l = ((0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0))
    table_l = [
        [(0, 0), (0, 0), (1, 0), (1, 0), (0, 0)],
        [(0, 0), (0, 0), (1, 0), (1, 0), (0, 0)],
        [(1, 0), (1, 1), (2, 1), (2, 1), (1, 1)],
        [(1, 0), (1, 1), (2, 1), (2, 1), (1, 1)],
        [(0, 0), (0, 0), (1, 0), (1, 0), (0, 0)],
    ]
    nl = 0
    for bi, blue in enumerate(states_l):
        for ri, red in enumerate(states_l):
            w = l_weight(2, (blue[0], red[0]), (blue[1], red[1]), (blue[2], red[2]), (blue[3], red[3]))
            xe, te = table_l[bi][ri]
            assert w == LaurentPoly.monomial(VarSet(nx=1), 1, (xe, te))
            nl += 1
    assert nl == 25

    v = VarSet(nx=1, ny=1)
    one = LaurentPoly.one(v)
    e = LaurentPoly.monomial(v, 1, (-1, 1, 0))
    u = LaurentPoly.monomial(v, 1, (-1, 1, -1))
    states_r = ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1))
    table_r = [
        [one, one - e, one, e, e],
        [one - e, (one - e) * (one - u), one - e, e * (one - e), e * (one - e)],
        [one, one - e, one, e, e],
        [e, u * (one - e), e, e * e, e * e],
        [e, u * (one - e), e, e * e, e * e],
    ]
    nr = 0
    for bi, blue in enumerate(states_r):
        for ri, red in enumerate(states_r):
            w = r_weight(2, (blue[0], red[0]), (blue[1], red[1]), (blue[2], red[2]), (blue[3], red[3]))
            assert w == table_r[bi][ri]
            nr += 1
    assert nr == 25
    _announce(2, "face-weight goldens", started)


def test_criterion_3_engine_equivalence():
    started = time.time()
    rng = random.Random(2024)
    compared = 0
    for _ in range(200):
        shape = random_skew_tuple(rng)
        n = rng.randint(1, 3)
        assert llt_coinv(shape, n) == partition_function(build_lattice(shape, n)), (shape.text(), n)
        compared += 1
    assert compared == 200
    assert time.time() - started < 120
    _announce(3, "engine equivalence on 200 random shapes", started)


def test_criterion_4_yang_baxter():
    started = time.time()
    rep1 = ybe_check(1, mode="symbolic")
    assert rep1.passed and rep1.checked == 64
    rep2 = ybe_check(2, mode="symbolic")
    assert rep2.passed and rep2.checked == 4096
    rep3 = ybe_check(3, mode="numeric", seed=1, trials=3)
    assert rep3.passed and rep3.checked == 3 * 4096 * 64

    # base-case oracles for the summation machinery: the first base word
    # equals x^k t^C(k,2) exactly as stated; the printed closed form of the
    # second inherits a stray x^k (see the strict xfail in
    # test_yangbaxter.py), and the relation the reduction proves gives
    # y^k t^C(k,2) = (y/x)^k * (first word)
    for k in (1, 2, 3):
        full = (1 << k) - 1
        first = LaurentPoly.monomial(VarSet(1, 1), 1, (k, 0, k * (k - 1) // 2))
        assert ybe_gauche(k, (0, full, 0, full, 0, 0)) == first
        assert ybe_droite(k, (0, full, 0, full, 0, 0)) == first
        ratio = LaurentPoly.monomial(VarSet(1, 1), 1, (-k, k, 0))
        second = ybe_gauche(k, (full, 0, 0, 0, full, 0))
        assert second == ratio * first
        assert second == ybe_droite(k, (full, 0, 0, 0, full, 0))
    assert time.time() - started < 300
    _announce(4, "Yang-Baxter symbolic k<=2, numeric k=3, base cases", started)


def test_criterion_5_recursion_consistency(in_ybe_ring):
    started = time.time()
    for k in (1, 2, 3):
        lw, rw = l_recursive(k), r_recursive(k)
        size = 1 << k
        for I in range(size):
            for J in range(size):
                for K in range(size):
                    for L in range(size):
                        assert lw(I, J, K, L) == in_ybe_ring(l_weight(k, I, J, K, L))
                        assert rw(I, J, K, L) == r_weight(k, I, J, K, L)
    assert time.time() - started < 60
    _announce(5, "recursion equals closed forms, k in {1,2,3}", started)


def test_criterion_6_symmetry():
    started = time.time()
    rng = random.Random(99)
    for _ in range(30):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3)
        assert verify_symmetry(shape, 3).passed
    assert time.time() - started < 60
    _announce(6, "symmetry in x1..x3 on 30 random shapes", started)


def test_criterion_7_triple_statistics():
    started = time.time()
    rng = random.Random(500)
    for _ in range(500):
        k = rng.randint(1, 3)
        beta = tuple(
            tuple(sorted((rng.randint(0, 4) for _ in range(rng.randint(1, 3))), reverse=True))
            for _ in range(k)
        )
        assert m_formula(beta) == m_bruteforce(SkewShapeTuple.straight(beta))

    def partitions(total, maxpart=None):
        maxpart = maxpart or total
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for size in range(1, 7):
        for mu in partitions(size):
            for beta in set(permutations(mu)):
                rows = tuple((p,) for p in beta)
                assert m_formula(rows) == n_stat(mu) + inv_stat(beta)
    assert time.time() - started < 60
    _announce(7, "m formula vs brute force and n+inv decomposition", started)


def test_criterion_8_hall_littlewood():
    started = time.time()

    def partitions(total, maxpart=None):
        maxpart = maxpart or total
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for n in (1, 2, 3):
        for size in range(1, 6):
            for mu in partitions(size):
                assert verify_hl(mu, n).passed
                assert verify_modified_hl(mu, n).passed
    assert time.time() - started < 120
    _announce(8, "Hall-Littlewood identities, |mu| <= 5, n <= 3", started)


def test_criterion_9_duality_suite():
    started = time.time()
    rng = random.Random(7777)
    for _ in range(6):
        k, n = rng.randint(1, 2), rng.randint(1, 2)
        lam = random_straight_tuple(rng, k, n, 2)
        M = n + 2 + rng.randint(0, 1)
        assert verify_box_skew(lam, M, n).passed
        assert verify_complement(lam, M, n).passed

    checked = 0
    while checked < 100:
        k, n = rng.randint(1, 3), rng.randint(1, 2)
        lam = random_straight_tuple(rng, k, n, 2)
        M = max((p[0] for p in lam), default=0) + n + rng.randint(0, 1)
        spec = build_box_lattice(lam, M, n)
        expected = d_stat(lam)
        configs = enumerate_configs(spec)
        assert configs  # a box lattice has a configuration; none would loop forever
        for config in configs[:4]:
            assert config.weight_exponents()[1] - rotate_config(config).weight_exponents()[1] == expected
            checked += 1

    checked = 0
    while checked < 100:
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = random_straight_tuple(rng, k, n, 2)
        M = n + 2 + rng.randint(0, 1)
        shape = SkewShapeTuple.straight(lam)
        expected = dtilde_stat(lam, M)
        for T in enumerate_ssyt(shape, n)[:4]:
            assert coinv(T) - coinv(complement_bijection(T, M)) == expected
            checked += 1

    assert verify_lstar(((1, 0), (0, 0)), 2, (3, 4, 5)).passed
    assert verify_lstar(((1, 1), (2, 0)), 2, (4, 5, 6)).passed
    assert verify_lstar(((2, 1),), 2, (4, 5, 6)).passed
    assert time.time() - started < 180
    _announce(9, "box/complement/rotation dualities and gray rows", started)


def test_criterion_10_cauchy():
    started = time.time()
    for n, k, D in ((1, 1, 4), (2, 1, 4), (1, 2, 4), (2, 2, 3)):
        assert verify_cauchy(n, k, D).passed
        assert verify_cauchy_rot(n, k, D).passed
    assert verify_skew_cauchy(((1, 0), (0, 0)), 2, 2, 3).passed
    assert time.time() - started < 300
    _announce(10, "Cauchy, skew Cauchy, rotated Cauchy", started)
