import random
import re
from itertools import permutations

import pytest

from lltlattice.shapes import (
    SkewShapeTuple,
    check_partition,
    column_range,
    complement,
    d_stat,
    dtilde_stat,
    inv_stat,
    label_columns,
    m_bruteforce,
    m_formula,
    n_stat,
    rotate,
)
from reference import triples

WORKED_SKEW = SkewShapeTuple(((3, 3), (3, 1)), ((2, 1), (1, 0)))


def test_partition_validation():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((-1,))
    with pytest.raises(ValueError):
        SkewShapeTuple(((2, 1),), ((2, 2),))


@pytest.mark.parametrize("parts", [(2.7, 1), ("2", 1)], ids=["float", "string"])
def test_partition_refuses_parts_that_are_not_integers(parts):
    # int() would truncate 2.7 and parse "2"; both are refused, by value
    with pytest.raises(ValueError, match=f"^parts must be integers, not {re.escape(repr(parts))}$"):
        check_partition(parts)


def test_label_columns_zero_parts():
    # a zero part sits at column 0: both colors of ((0,), (0,)) start there
    assert [label_columns(p) for p in ((0,), (0,))] == [(0,), (0,)]


def test_column_range_worked_example():
    assert column_range(WORKED_SKEW) == (-1, 3)


def test_label_columns_table():
    # ((3,1),(2,2)): color 1 occupies columns {3, 0}, color 2 columns {2, 1}
    assert label_columns((3, 1)) == (3, 0)
    assert label_columns((2, 2)) == (2, 1)


def test_label_columns_distinct():
    rng = random.Random(0)
    for _ in range(100):
        m = rng.randint(1, 5)
        parts = tuple(sorted((rng.randint(0, 5) for _ in range(m)), reverse=True))
        cols = label_columns(parts)
        assert len(set(cols)) == m
        assert all(cols[i] > cols[i + 1] for i in range(m - 1))


def test_column_range_simple():
    assert column_range(SkewShapeTuple(((3,), (2,)), ((0,), (0,)))) == (0, 3)
    assert column_range(SkewShapeTuple(((0,),), ((0,),))) == (0, 0)


def test_column_range_of_components_with_no_parts():
    assert column_range(SkewShapeTuple(((),), ((),))) == (0, 0)


def test_m_examples():
    assert m_formula(((3,), (2,))) == 3
    assert m_formula(((1,), (1,))) == 1
    empty = ((0,), (0,), (0,))
    assert m_formula(empty) == m_bruteforce(SkewShapeTuple.straight(empty))
    assert m_bruteforce(SkewShapeTuple.straight(((0,),))) == 0


def test_m_single_triple_by_hand():
    # ((1),(1)): the only triple has u outside at column 0 and w the later cell
    shape = SkewShapeTuple.straight(((1,), (1,)))
    ts = triples(shape)
    assert len(ts) == 1
    tr = ts[0]
    assert (tr.a, tr.b, tr.q, tr.u_inside, tr.w_inside) == (0, 1, 0, False, True)


def test_m_formula_matches_bruteforce_random():
    rng = random.Random(42)
    for _ in range(200):
        k = rng.randint(1, 3)
        beta = tuple(
            tuple(sorted((rng.randint(0, 4) for _ in range(rng.randint(1, 3))), reverse=True))
            for _ in range(k)
        )
        assert m_formula(beta) == m_bruteforce(SkewShapeTuple.straight(beta))


def test_m_equals_n_plus_inv():
    # over all rearrangements of every partition of size <= 6
    def partitions(total, maxpart=None):
        maxpart = maxpart or total
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for size in range(0, 7):
        for mu in partitions(size):
            if not mu:
                continue
            for beta in set(permutations(mu)):
                rows = tuple((p,) for p in beta)
                assert m_formula(rows) == n_stat(mu) + inv_stat(beta)


def test_n_inv_examples():
    assert n_stat((3, 2)) == 2
    assert inv_stat((3, 2)) == 1
    assert n_stat(()) == 0
    assert inv_stat((1, 2, 3)) == 0


def test_complement_example():
    lam = ((2, 1), (1, 0))
    assert complement(lam, 5, 2) == ((3, 2), (2, 1))


def test_complement_zero_tuple():
    lam = ((0, 0), (0, 0))
    assert complement(lam, 5, 2) == ((3, 3), (3, 3))


def test_complement_involution():
    rng = random.Random(3)
    for _ in range(50):
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = tuple(
            tuple(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
            for _ in range(k)
        )
        M = n + 3
        assert complement(complement(lam, M, n), M, n) == lam


def test_complement_box_violation():
    with pytest.raises(ValueError):
        complement(((5, 0),), 4, 2)


def test_rotate_examples():
    # rectangles rotate to themselves (shifted into the box), order reversed
    rect = ((2, 2), (2, 2))
    rot = rotate(rect)
    assert rot.beta == ((2, 2), (2, 2)) and rot.gamma == ((0, 0), (0, 0))
    # ((2,1),(1,1)) against the complement-in-minimal-box definition
    rot2 = rotate(((2, 1), (1, 1)))
    assert rot2.beta == ((2, 2), (2, 2))
    assert rot2.gamma == ((1, 1), (1, 0))


def test_rotate_involution():
    rng = random.Random(5)
    for _ in range(50):
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = tuple(
            tuple(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
            for _ in range(k)
        )
        straight = SkewShapeTuple.straight(lam)
        assert rotate(rotate(lam)) == straight


def test_straight_is_the_one_coercion():
    shape = SkewShapeTuple.straight([[2, 1], [1, 1]])
    assert shape == SkewShapeTuple(((2, 1), (1, 1)), ((0, 0), (0, 0)))
    assert SkewShapeTuple.straight(shape) is shape
    assert SkewShapeTuple.straight(WORKED_SKEW) is WORKED_SKEW
    assert rotate(rotate(WORKED_SKEW)) == WORKED_SKEW


@pytest.mark.parametrize("bad, message", [
    ((), "^shape tuple must have at least one component$"),
    (((1, 2),), r"^parts not weakly decreasing: \(1, 2\)$"),
    (((1, -1),), r"^negative part in \(1, -1\)$"),
    ((3,), "^parts must be integers, not 3$"),
    (5, "^a shape tuple must be a sequence of partitions, not 5$"),
])
def test_straight_rejects_bad_input(bad, message):
    from lltlattice.identities import llt

    for coerce in (SkewShapeTuple.straight, rotate, lambda s: llt(s, 2)):
        with pytest.raises(ValueError, match=message):
            coerce(bad)


def test_d_stat_values():
    assert d_stat(((0, 0), (0, 0))) == 0
    assert d_stat(((2, 1),)) == 0  # k = 1
    assert d_stat(((1, 0), (1, 0))) == 0
    # negative offsets happen; the shifted polynomials absorb them
    assert d_stat(((1, 0), (0, 0))) == -1


def test_d_stat_rejects_ragged():
    with pytest.raises(ValueError, match=r"^\(1,\) must have exactly 2 parts$"):
        d_stat(((1, 0), (1,)))
    with pytest.raises(ValueError, match=r"^\(1,\) must have exactly 2 parts$"):
        dtilde_stat(((1, 0), (1,)), 4)


def test_dtilde_values():
    assert dtilde_stat(((0, 0), (0, 0)), M=5) == -2 * 3 * 1
    assert dtilde_stat(((2, 1),), M=5) == 0  # k = 1
    assert dtilde_stat(((1,), (1,)), M=3) == 2 - 2


def test_d_stat_invariant_under_complement():
    rng = random.Random(9)
    for _ in range(60):
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = tuple(
            tuple(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
            for _ in range(k)
        )
        width = max((p[0] for p in lam if p), default=0)
        comp = complement(lam, width + n, n)
        assert d_stat(comp) == d_stat(lam)


def test_box_width_rule_is_shared():
    from lltlattice.lattice import build_box_lattice
    from lltlattice.tableaux import TableauTuple, complement_bijection

    lam = ((2, 0), (1, 1))
    T = TableauTuple(SkewShapeTuple.straight(lam), (((1, 1),), ((1,), (2,))))
    calls = [
        lambda: complement(lam, 3, 2),
        lambda: dtilde_stat(lam, 3),
        lambda: build_box_lattice(lam, 3, 2),
        lambda: complement_bijection(T, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^part 2 exceeds box width 1$"):
            call()


def test_box_height_rule_is_shared():
    # checked before the parts are fitted, which would name a box of width
    # M - n = -1
    from lltlattice.lattice import build_box_lattice
    from lltlattice.tableaux import TableauTuple, complement_bijection

    lam = ((1, 0),)
    T = TableauTuple(SkewShapeTuple.straight(lam), (((1,), ()),))
    calls = [
        lambda: complement(lam, 1, 2),
        lambda: dtilde_stat(lam, 1),
        lambda: build_box_lattice(lam, 1, 2),
        lambda: complement_bijection(T, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^M must be at least n, not M = 1 with n = 2$"):
            call()


def test_part_count_rule_is_shared():
    from lltlattice.lattice import build_box_lattice
    from lltlattice.tableaux import TableauTuple, complement_bijection

    lam = ((1, 0), (1,))
    T = TableauTuple(SkewShapeTuple(lam, ((0, 0), (0,))), (((1,), ()), ((1,),)))
    calls = [
        lambda: complement(lam, 4, 2),
        lambda: d_stat(lam),
        lambda: dtilde_stat(lam, 4),
        lambda: build_box_lattice(lam, 4, 2),
        lambda: complement_bijection(T, 4),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^\(1,\) must have exactly 2 parts$"):
            call()
