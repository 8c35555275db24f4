import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.identities import _family_tuples
from lltlattice.lattice import (
    LatticeConfig,
    LatticeSpec,
    _labels,
    _row_transitions,
    build_box_lattice,
    build_lattice,
    config_to_ssyt,
    enumerate_configs,
    face_weight_exponents,
    gray_rows,
    mask_of,
    partition_function,
    rotate_config,
    ssyt_to_config,
)
from lltlattice.shapes import SkewShapeTuple, d_stat
from lltlattice.tableaux import TableauTuple, enumerate_ssyt, llt_coinv
from reference import coinv, l_weight, lstar_weight
from shapegen import random_skew_tuple, random_straight_tuple

FIRST = SkewShapeTuple(((3,), (2,)), ((0,), (0,)))
SECOND = SkewShapeTuple(((3, 3), (3, 1)), ((2, 1), (1, 0)))


def test_l_weight_all_zero():
    assert l_weight(3, 0, 0, 0, 0) == LaurentPoly.one(VarSet(nx=1))


def test_l_weight_three_color_example():
    # blue enters bottom and leaves right, red crosses, green enters left and
    # leaves top: weight x^2 t^3
    w = l_weight(3, (1, 0, 0), (0, 1, 1), (0, 0, 1), (1, 1, 0))
    assert w == LaurentPoly.monomial(VarSet(nx=1), 1, (2, 3))


def test_l_weight_forbidden():
    # a color entering twice is inadmissible
    assert l_weight(1, (1,), (1,), (1,), (1,)).is_zero()
    # conservation failure
    assert l_weight(1, (1,), (0,), (0,), (0,)).is_zero()
    # no labels are sets of colors among 1..k for k < 0
    with pytest.raises(ValueError, match=r"among 1\.\.-1$"):
        l_weight(-1, 0, 0, 0, 0)


# the two-color face states, per color: absent, vertical, horizontal,
# bottom-to-right, left-to-top
_LSTATES = (
    (0, 0, 0, 0),
    (1, 0, 1, 0),
    (0, 1, 0, 1),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
)
# (x exponent, t exponent) rows: blue state; columns: red state
_LTABLE = [
    [(0, 0), (0, 0), (1, 0), (1, 0), (0, 0)],
    [(0, 0), (0, 0), (1, 0), (1, 0), (0, 0)],
    [(1, 0), (1, 1), (2, 1), (2, 1), (1, 1)],
    [(1, 0), (1, 1), (2, 1), (2, 1), (1, 1)],
    [(0, 0), (0, 0), (1, 0), (1, 0), (0, 0)],
]


def test_l_weight_two_color_table():
    vars = VarSet(nx=1)
    checked = 0
    for bi, blue in enumerate(_LSTATES):
        for ri, red in enumerate(_LSTATES):
            I = (blue[0], red[0])
            J = (blue[1], red[1])
            K = (blue[2], red[2])
            L = (blue[3], red[3])
            xe, te = _LTABLE[bi][ri]
            assert l_weight(2, I, J, K, L) == LaurentPoly.monomial(vars, 1, (xe, te))
            checked += 1
    assert checked == 25


def test_lstar_weight_examples():
    for k in (1, 2, 3):
        vars = VarSet(nx=1)
        expected = LaurentPoly.monomial(vars, 1, (k, k * (k - 1) // 2))
        assert lstar_weight(k, 0, 0, 0, 0) == expected
    # full horizontal crossing: all colors enter left and leave right -> 1
    for k in (1, 2, 3):
        full = (1 << k) - 1
        assert lstar_weight(k, 0, full, 0, full) == LaurentPoly.one(VarSet(nx=1))
    # k = 1: gray weight is x * L_{1/x}
    assert lstar_weight(1, (1,), (0,), (0,), (1,)) == LaurentPoly.monomial(
        VarSet(nx=1), 1, (0, 0)
    )


def test_build_lattice_worked_example():
    spec = build_lattice(SECOND, 2)
    assert (spec.r, spec.r + spec.ncols - 1) == (-1, 3)
    assert spec.ncols == 5
    assert spec.n == 2
    spec1 = build_lattice(FIRST, 2)
    assert (spec1.r, spec1.r + spec1.ncols - 1) == (0, 3)
    for bottom, top in zip(spec.bottom, spec.top, strict=True):
        assert len(bottom) == len(top)


def test_configuration_weight_golden():
    # the four-face two-row configuration with weight x1^3 x2^2 x3^2 t^8;
    # the displayed grid carries x2 and x3 on its top row, so the product is
    # assembled face by face here
    faces = [
        # (I, J, K, L, variable index 1-based)
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


def test_partition_function_goldens():
    assert partition_function(build_lattice(FIRST, 2)) == llt_coinv(FIRST, 2)
    assert partition_function(build_lattice(SECOND, 2)) == llt_coinv(SECOND, 2)


def test_partition_function_empty():
    spec = build_lattice(SkewShapeTuple(((0,),), ((0,),)), 2)
    assert partition_function(spec) == LaurentPoly.one(VarSet(nx=2))


def test_enumerate_configs_counts():
    assert len(enumerate_configs(build_lattice(FIRST, 2))) == 12
    assert len(enumerate_configs(build_lattice(SECOND, 2))) == 12
    empty = build_lattice(SkewShapeTuple(((0,),), ((0,),)), 2)
    assert len(enumerate_configs(empty)) == 1


def test_enumeration_sums_to_partition_function():
    # plain lattices, then box lattices whose paths leave through the top or
    # through the right edge, where weight() checks each row's derived right
    # label against spec.right
    rng = random.Random(31)
    specs = []
    for _ in range(20):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3)
        specs.append(build_lattice(shape, rng.randint(1, 3)))
    for _ in range(10):
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = random_straight_tuple(rng, k, n, 2)
        M = max((p[0] for p in lam), default=0) + n + rng.randint(0, 1)
        specs += [build_box_lattice(lam, M, n, right_exit=e) for e in (False, True)]
    exits = 0
    for spec in specs:
        total = LaurentPoly.zero(VarSet(nx=spec.n))
        for config in enumerate_configs(spec):
            total = total + config.weight()
            exits += any(spec.right)
        assert total == partition_function(spec)
    assert exits == 403


@st.composite
def skew_tuples(draw):
    beta, gamma = [], []
    for _ in range(draw(st.integers(1, 3))):
        parts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        b = tuple(sorted(parts, reverse=True))
        g = tuple(sorted((draw(st.integers(0, v)) for v in b), reverse=True))
        beta.append(b)
        gamma.append(g)
    return SkewShapeTuple(tuple(beta), tuple(gamma))


@given(skew_tuples(), st.integers(1, 3))
@settings(max_examples=100)
def test_partition_function_equals_tableaux_property(shape, n):
    assert partition_function(build_lattice(shape, n)) == llt_coinv(shape, n)


def _reachable_levels(spec):
    """DP states level by level, and the number of transitions made."""
    step = _row_transitions(spec)
    levels, made = [{spec.bottom}], 0
    for row in range(1, spec.n + 1):
        nxt = set()
        for state in levels[-1]:
            for tops, _, _ in step(row, state):
                nxt.add(tops)
                made += 1
        levels.append(nxt)
    return levels, made


def test_worst_criterion_3_shape():
    # the shape with the most DP transitions among the 200 of acceptance
    # criterion 3; the untargeted DP made 287,696 transitions on it
    shape = SkewShapeTuple(((2, 0, 0), (2, 1, 1), (3, 3, 0)), ((2, 0, 0), (0, 0, 0), (1, 0, 0)))
    spec = build_lattice(shape, 3)
    result = partition_function(spec)
    assert result == llt_coinv(shape, 3)
    assert len(result.terms) == 26
    levels, made = _reachable_levels(spec)
    assert [len(level) for level in levels] == [1, 12, 8, 1]
    assert made == 65


def test_anchor_reachable_levels():
    spec = build_lattice(SkewShapeTuple.straight(((3, 2), (2, 1), (2, 0))), 7)
    levels, made = _reachable_levels(spec)
    assert [len(level) for level in levels] == [1, 36, 135, 135, 135, 135, 72, 1]
    assert made == 9_546


def test_wide_shape_levels():
    # the wide-shape cliff: a pin on the last row alone kept 68,796 states
    # before it, and only these 2,560 can reach the top
    shape = SkewShapeTuple.straight(((9, 6, 3), (8, 5, 1), (7, 7, 0)))
    spec = build_lattice(shape, 3)
    levels, made = _reachable_levels(spec)
    assert [len(level) for level in levels] == [1, 448, 2_560, 1]
    assert made == 210_368
    assert partition_function(spec) == llt_coinv(shape, 3)


def _assert_every_state_is_live(spec):
    """Backwards from the top: each kept state has a row into the next
    level's states, which are live, so it lies on some configuration."""
    levels, _ = _reachable_levels(spec)
    assert levels[-1] == {spec.top}
    step = _row_transitions(spec)
    for row in range(spec.n, 0, -1):
        for state in levels[row - 1]:
            assert any(tops in levels[row] for tops, _, _ in step(row, state)), (spec, row, state)


def test_every_kept_state_reaches_the_top():
    rng, live = random.Random(5), 0
    for _ in range(300):
        spec = build_lattice(random_skew_tuple(rng, max_k=3, max_rows=3, max_part=4),
                             rng.randint(1, 4))
        if partition_function(spec).terms:
            _assert_every_state_is_live(spec)
            live += 1
    assert live == 270
    # which moves a row has is decided color by color, so one order of each
    # multiset of components stands for all of its orders
    for k, n in product((1, 2, 3), (1, 2, 3)):
        for M in range(n, n + 3):
            parts = list(combinations_with_replacement(range(M - n, -1, -1), n))
            for lam in combinations_with_replacement(parts, k):
                for right_exit in (False, True):
                    _assert_every_state_is_live(build_box_lattice(lam, M, n, right_exit))


@pytest.mark.parametrize("spec", [
    build_lattice(SECOND, 2),
    build_box_lattice(((2, 1), (1, 0)), 4, 2),
    build_box_lattice(((2, 1, 0), (1, 1, 0)), 5, 3, right_exit=True),
], ids=["plain", "box", "right-exit"])
def test_last_row_yields_only_the_top(spec):
    levels, _ = _reachable_levels(spec)
    assert levels[-1] == {spec.top}
    step = _row_transitions(spec)
    for state in levels[-2]:
        assert {t for t, _, _ in step(spec.n, state)} <= {spec.top}


def _random_specs(rng, count):
    for _ in range(count):
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3)
        yield build_lattice(shape, rng.randint(1, 3))
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = random_straight_tuple(rng, k, n, 2)
        M = max((p[0] for p in lam), default=0) + n + rng.randint(0, 1)
        for right_exit in (False, True):
            yield build_box_lattice(lam, M, n, right_exit=right_exit)


def test_row_weight_matches_face_weights():
    # every transition's (x, t) is the sum of face_weight_exponents over the
    # row's faces, rebuilt from the vertical labels and the horizontal ones
    # that conservation gives them, from the empty left edge rightwards
    checked = 0
    for spec in _random_specs(random.Random(47), 150):
        step, ncols = _row_transitions(spec), spec.ncols
        levels, _ = _reachable_levels(spec)
        for row, states in enumerate(levels[:-1], start=1):
            for state in states:
                below = _labels(state, ncols)
                for tops, xexp, texp in step(row, state):
                    above = _labels(tops, ncols)
                    horiz = [0] * (ncols + 1)
                    for c in range(ncols):
                        horiz[c + 1] = (below[c] | horiz[c]) & ~above[c]
                    assert horiz[ncols] == spec.right[row - 1]
                    xe = te = 0
                    for c in range(ncols):
                        face = face_weight_exponents(below[c], horiz[c],
                                                     above[c], horiz[c + 1])
                        xe, te = xe + face[0], te + face[1]
                    assert (xexp, texp) == (xe, te)
                    checked += 1
    assert checked == 9_640


def _reference_partition_function(spec):
    """Sum over every labelling, row by row and face by face, with
    face_weight_exponents as the only rule."""
    k, ncols, vars = spec.k, spec.ncols, VarSet(nx=spec.n)
    states = {_labels(spec.bottom, ncols): LaurentPoly.one(vars)}
    for row in range(1, spec.n + 1):
        nxt = {}
        for below, poly in states.items():
            rows = [((), 0, 0, 0)]  # (tops so far, carry, x-exp, t-exp)
            for c in range(ncols):
                rows = [(tops + (K,), L, xe + w[0], te + w[1])
                        for tops, J, xe, te in rows
                        for K, L in product(range(1 << k), repeat=2)
                        if (w := face_weight_exponents(below[c], J, K, L))]
            for tops, carry, xe, te in rows:
                if carry == spec.right[row - 1]:
                    exps = [0] * vars.total
                    exps[row - 1], exps[vars.t_index] = xe, te
                    nxt[tops] = nxt.get(tops, LaurentPoly.zero(vars)) + poly * (
                        LaurentPoly.monomial(vars, 1, exps))
        states = nxt
    return states.get(_labels(spec.top, ncols), LaurentPoly.zero(vars))


def test_right_labels_that_differ_by_row():
    # first: color 1 leaves through the right edge on row 1 and color 2 on
    # row 3 of 4; color 2 can keep its columns over rows 1-3, so a move memo
    # keyed without the exit bit would give row 3 the moves of row 1.
    # second: the right path leaves on row 4, so on row 3 it must end right
    # of column 3, which the left path still has to reach, and on rows 1-2
    # it need not; a memo keyed by the rows left capped at the top paths (1)
    # would give row 3's moves to later calls on rows 1-2 and drop 12 configs
    for spec in (LatticeSpec(0, 4, ((0, 1), (0, 1)), ((1,), (2,)), (1, 0, 2, 0)),
                 LatticeSpec(0, 5, ((0, 2),), ((3,),), (0, 0, 0, 1))):
        configs = enumerate_configs(spec)
        total = LaurentPoly.zero(VarSet(nx=4))
        for config in configs:
            total = total + config.weight()
        assert len(configs) == 60
        assert total == partition_function(spec) == _reference_partition_function(spec)


_COLUMNS = "do not increase strictly within 0..1$"


@pytest.mark.parametrize("bottom, top, right, message", [
    (((0,),), ((1,),), (2,), r"^right label 2 at row 1 is not a subset of 1\.\.1$"),
    (((0,),), ((1,),), (3,), r"^right label 3 at row 1 is not a subset of 1\.\.1$"),
    (((-1,),), ((1,),), (0,), rf"^bottom columns \(-1,\) of color 1 {_COLUMNS}"),
    (((0,),), ((2,),), (0,), rf"^top columns \(2,\) of color 1 {_COLUMNS}"),
    (((0,), (1, 0)), ((1,), (0, 1)), (0,), rf"^bottom columns \(1, 0\) of color 2 {_COLUMNS}"),
    (((0,), (0, 1)), ((1,), (1, 1)), (0,), rf"^top columns \(1, 1\) of color 2 {_COLUMNS}"),
    (((0,),), ((1,), ()), (0,), "^bottom and top name 1 and 2 colors$"),
    ((), (), (0,), "^a lattice needs at least one color$"),
    (((0,),), ((1,),), (1,), "^color 1 is not conserved by the boundary$"),
    (((0,),), ((1,),), (), "^n must be at least 1$"),
    (((0,),), ((0,),), (), "^n must be at least 1$"),
    (((0.5,),), ((1,),), (0,), r"^bottom columns \(0\.5,\) of color 1 are not integers$"),
    (((0,),), ((1,), (1.0,)), (0,), r"^top columns \(1\.0,\) of color 2 are not integers$"),
    (((0,),), ((1,),), (0.0,), r"^right label at row 1 must be an integer, not 0\.0$"),
], ids=["color-2", "colors-1-2", "negative", "outside", "decreasing", "repeated", "lengths",
        "no-colors", "conservation", "no-rows-step", "no-rows", "float-bottom", "float-top",
        "float-right"])
def test_lattice_spec_refuses_bad_boundaries(bottom, top, right, message):
    # two columns: a right label naming color 2, a column off 0..1, out of
    # order or not an integer, or mismatched colors is not a boundary
    with pytest.raises(ValueError, match=message):
        LatticeSpec(r=0, ncols=2, bottom=bottom, top=top, right=right)


@pytest.mark.parametrize("bottom, top, right, message", [
    (((0, 3), (1,)), ((1, 2), (2,)), (0, 0), r"bottom columns \(0, 3\) of color 1"),
    (((0, 1), (1,)), ((1, 2), (2, 2)), (0, 0), r"top columns \(2, 2\) of color 2"),
    (((0, 1), (1,)), ((1, 2), (2,)), (0, 4), r"right label 4 at row 2"),
], ids=["bottom", "top", "right"])
def test_lattice_spec_names_the_side_and_place_of_a_bad_label(bottom, top, right, message):
    # k = 2 on three columns from r = 2, counted 0, 1, 2; rows 1, 2
    with pytest.raises(ValueError, match=f"^{message} "):
        LatticeSpec(r=2, ncols=3, bottom=bottom, top=top, right=right)


def test_lattice_spec_given_lists_keeps_tuples():
    # one path from column 0 to column 1 over two rows: weight x1 + x2
    listed = LatticeSpec(r=0, ncols=2, bottom=[[0]], top=[[1]], right=[0, 0])
    spec = LatticeSpec(r=0, ncols=2, bottom=((0,),), top=((1,),), right=(0, 0))
    assert listed == spec and hash(listed) == hash(spec)
    assert (listed.bottom, listed.top, listed.right) == (((0,),), ((1,),), (0, 0))
    total = LaurentPoly.zero(VarSet(nx=2))
    for config in enumerate_configs(listed):
        total = total + config.weight()
    vars = VarSet(nx=2)
    assert total == partition_function(listed) == (LaurentPoly.monomial(vars, 1, (1, 0, 0))
                                                   + LaurentPoly.monomial(vars, 1, (0, 1, 0)))


def test_build_lattice_spec_passes_the_full_check():
    # build_lattice skips the spec's checks on a checked shape; the checked
    # constructor must accept and reproduce every spec it builds
    rng = random.Random(39)
    shapes = [*_family_tuples(), *(random_skew_tuple(rng) for _ in range(300))]
    for shape in shapes:
        for n in (1, 2, 3):
            spec = build_lattice(shape, n)
            checked = LatticeSpec(r=spec.r, ncols=spec.ncols, bottom=spec.bottom,
                                  top=spec.top, right=spec.right)
            assert (checked, checked.n, repr(checked)) == (spec, spec.n, repr(spec)), shape


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_packed_x_field_at_its_bound(k, M):
    # every color steps right across all M columns of the one row: the x
    # exponent is k * M, the bound its packed field must hold without
    # carrying into t
    spec = build_box_lattice(((0,),) * k, M, 1, right_exit=True)
    assert spec.k * spec.ncols == k * M
    expected = LaurentPoly.monomial(VarSet(nx=1), 1, (k * M, M * k * (k - 1) // 2))
    assert partition_function(spec) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rows_are_the_right_labels(n):
    lam = ((1,) + (0,) * (n - 1), (0,) * n)
    box, right_exit = (build_box_lattice(lam, n + 2, n, right_exit=e) for e in (False, True))
    rotated = rotate_config(enumerate_configs(box)[0]).spec
    for spec in (build_lattice(SECOND, n), box, right_exit, rotated):
        assert spec.n == len(spec.right) == n


def test_per_color_conservation_of_configs():
    spec = build_lattice(SECOND, 2)
    for config in enumerate_configs(spec):
        for row in range(1, spec.n + 1):
            for I, J, K, L in config.faces(row):
                assert I | J == K | L
                assert I & J == 0


def test_gray_rows_sums_gray_face_weights():
    # a gray lattice face by face: each configuration weighs the product of
    # lstar_weight over its faces, with x moved to the row's variable
    rng = random.Random(37)
    for _ in range(10):
        k, n = rng.randint(1, 2), rng.randint(1, 2)
        lam = random_straight_tuple(rng, k, n, 2)
        M = max((p[0] for p in lam), default=0) + n + 1
        vars = VarSet(nx=n)
        for right_exit in (False, True):
            spec = build_box_lattice(lam, M, n, right_exit=right_exit)
            configs = enumerate_configs(spec)
            total = LaurentPoly.zero(vars)
            for config in configs:
                exps = [0] * vars.total
                for row in range(1, n + 1):
                    for face in config.faces(row):
                        [((xe, te), coeff)] = lstar_weight(k, *face).terms.items()
                        assert coeff == 1
                        exps[row - 1] += xe
                        exps[vars.t_index] += te
                total = total + LaurentPoly.monomial(vars, 1, exps)
            assert configs
            assert total == gray_rows(partition_function(spec), k, M)


def test_gray_rows_is_the_row_substitution():
    # second route, through LaurentPoly.substitute: x_i -> 1/(x_i t^(k-1)),
    # then x_i^k t^C(k,2) once per face of each row
    rng = random.Random(53)
    for _ in range(60):
        n, k, faces = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4)
        vars = VarSet(nx=n)
        P = LaurentPoly(vars, {tuple(rng.randint(-3, 3) for _ in range(vars.total)):
                               rng.randint(-4, 4) for _ in range(rng.randint(0, 8))})
        assignment = {}
        for i in range(n):
            exps = [0] * vars.total
            exps[i], exps[vars.t_index] = -1, 1 - k
            assignment[i] = (1, tuple(exps))
        scale = LaurentPoly.monomial(vars, 1, [k * faces] * n + [n * faces * k * (k - 1) // 2])
        gray = gray_rows(P, k, faces)
        assert gray == scale * P.substitute(assignment)
        assert len(gray.terms) == len(P.terms)


# -- the bijection --------------------------------------------------------------


def test_ssyt_to_config_golden_monomial():
    # all-ones filling of the first worked shape maps to weight x1^5 t^3
    T = TableauTuple(FIRST, (((1, 1, 1),), ((1, 1),)))
    config = ssyt_to_config(T, 2)
    assert config.weight() == LaurentPoly.monomial(VarSet(nx=2), 1, (5, 0, 3))


def test_single_cell_path():
    shape = SkewShapeTuple(((1,),), ((0,),))
    for e in (1, 2, 3):
        T = TableauTuple(shape, (((e,),),))
        config = ssyt_to_config(T, 3)
        # the one horizontal step happens at row e
        row_x = config.weight_exponents()[0]
        assert row_x[e - 1] == 1 and sum(row_x) == 1


def test_bijection_roundtrip_random():
    rng = random.Random(41)
    checked = 0
    for _ in range(100):   # draws: a skew shape may have no filling, so bound them
        if checked >= 200:
            break
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3)
        n = rng.randint(1, 3)
        for T in enumerate_ssyt(shape, n)[:10]:
            config = ssyt_to_config(T, n)
            assert config_to_ssyt(config) == T
            checked += 1
    assert checked >= 200


@given(skew_tuples(), st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_bijection_roundtrip_property(shape, n, data):
    tableaux = enumerate_ssyt(shape, n)
    assume(tableaux)
    T = data.draw(st.sampled_from(tableaux))
    config = ssyt_to_config(T, n)
    assert config_to_ssyt(config) == T


def test_bijection_preserves_weights():
    for shape, n in ((FIRST, 2), (SECOND, 2)):
        vars = VarSet(nx=n)
        for T in enumerate_ssyt(shape, n):
            config = ssyt_to_config(T, n)
            expected = LaurentPoly.monomial(
                vars, 1, tuple(T.weight_exponents(n)) + (coinv(T),)
            )
            assert config.weight() == expected


def test_config_to_ssyt_rejects_malformed():
    T = TableauTuple(FIRST, (((1, 1, 1),), ((1, 1),)))
    config = ssyt_to_config(T, 2)
    broken = LatticeConfig(
        config.spec,
        config.verticals[:1] + (tuple(() for _ in config.verticals[1]),) + config.verticals[2:],
    )
    with pytest.raises(ValueError):
        config_to_ssyt(broken)


# k = 1 on columns 0, 1 over two rows: _STEP's path steps right on some row,
# and _EXIT's leaves through the right edge on row 2
_STEP = LatticeSpec(r=0, ncols=2, bottom=((0,),), top=((1,),), right=(0, 0))
_EXIT = LatticeSpec(r=0, ncols=2, bottom=((0,),), top=((),), right=(0, 1))
_OFF_BOUNDARY = "^levels 0..2 do not run from the bottom boundary to the top$"
_LEVEL_1 = "^level 1 columns {} of color 1 do not increase strictly within 0..1$"


@pytest.mark.parametrize("spec, verticals, message", [
    (_STEP, (((1,),), ((1,),), ((1,),)), _OFF_BOUNDARY),
    (_STEP, (((0,),), ((0,),), ((0,),)), _OFF_BOUNDARY),
    (_STEP, (((0,),), ((1,),)), _OFF_BOUNDARY),
    (_EXIT, (((0,),), ((),), ((),)), "^row 1 passes 1 out of the right edge, not its right label 0$"),
    (_STEP, (((0,),), ((0, 1),), ((1,),)), "^inadmissible face at row 1, column 1$"),
    (_STEP, (((0,),), ((0, 0),), ((1,),)), _LEVEL_1.format(r"\(0, 0\)")),
    (_STEP, (((0,),), ((1, 0),), ((1,),)), _LEVEL_1.format(r"\(1, 0\)")),
    (_STEP, (((0,),), ((2,),), ((1,),)), _LEVEL_1.format(r"\(2,\)")),
], ids=["bottom", "top", "levels", "right-edge", "face", "repeated", "decreasing", "outside"])
def test_configs_off_their_spec_are_refused(spec, verticals, message):
    # every face of the first four is admissible: only the boundary is wrong;
    # the fifth puts color 1 on top of row 1's column 1 with nothing entering;
    # the last three hold a level whose columns a mask would merge into {0},
    # reorder or carry off the lattice
    config = LatticeConfig(spec, verticals)
    for read in (LatticeConfig.weight_exponents, config_to_ssyt):
        with pytest.raises(ValueError, match=message):
            read(config)


def test_config_to_ssyt_reads_the_shape_off_the_boundary():
    box = build_box_lattice(((1, 0), (1, 0)), 3, 2)
    shapes = {config_to_ssyt(config).shape for config in enumerate_configs(box)}
    assert shapes == {SkewShapeTuple(((1, 1), (1, 1)), ((1, 0), (1, 0)))}
    # with right exits the top carries no labels, so beta has no parts
    spec = build_box_lattice(((1, 0), (1, 0)), 3, 2, right_exit=True)
    with pytest.raises(ValueError, match="must have the same number of parts"):
        config_to_ssyt(enumerate_configs(spec)[0])


# -- rotation -------------------------------------------------------------------


def test_rotate_config_small_example():
    lam = ((1, 0), (1, 1))
    spec = build_box_lattice(lam, 4, 2)
    configs = enumerate_configs(spec)
    assert configs
    for config in configs:
        rotated = rotate_config(config)
        # bottom boundary of the image is the empty tuple's: every color on
        # columns 0..n-1
        assert rotated.verticals[0] == (tuple(range(spec.n)),) * spec.k


def test_rotate_config_involution():
    lam = ((1, 0), (2, 1))
    spec = build_box_lattice(lam, 5, 2)
    for config in enumerate_configs(spec)[:10]:
        rotated = rotate_config(config)
        back = rotate_config(rotated)
        assert back.verticals == config.verticals


@given(st.integers(1, 3), st.integers(1, 2), st.data())
@settings(max_examples=60)
def test_rotate_config_involution_property(k, n, data):
    lam = tuple(
        tuple(sorted(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), reverse=True))
        for _ in range(k)
    )
    M = max(p[0] for p in lam) + n + data.draw(st.integers(0, 1))
    configs = enumerate_configs(build_box_lattice(lam, M, n))
    assume(configs)
    config = data.draw(st.sampled_from(configs))
    back = rotate_config(rotate_config(config))
    assert back.verticals == config.verticals


def test_rotate_config_coinv_difference():
    rng = random.Random(43)
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
            rotated = rotate_config(config)
            assert config.weight_exponents()[1] - rotated.weight_exponents()[1] == expected
            # horizontal steps stay horizontal: total x-degree is preserved
            assert sum(config.weight_exponents()[0]) == sum(rotated.weight_exponents()[0])
            checked += 1


def test_rotate_config_rejects_non_box():
    spec = build_lattice(FIRST, 2)
    config = enumerate_configs(spec)[0]
    with pytest.raises(ValueError, match="not a full box"):
        rotate_config(config)
    spec = build_box_lattice(((1, 0), (1, 0)), 3, 2, right_exit=True)
    with pytest.raises(ValueError, match="empty right edge"):
        rotate_config(enumerate_configs(spec)[0])
    # one column at n = 2 and r = 1 - n: no (M - n)^n box is that narrow
    narrow = LatticeSpec(r=-1, ncols=1, bottom=((0,),), top=((0,),), right=(0, 0))
    with pytest.raises(ValueError, match="^top boundary is not a full box$"):
        rotate_config(LatticeConfig(narrow, (((0,),),) * 3))


def test_rotate_config_refuses_a_lattice_with_no_box_side():
    # r = 1 - n and three columns, but neither side is the box's: the bottom
    # is not empty and the top is not full
    spec = LatticeSpec(r=-1, ncols=3, bottom=((0,),), top=((1,),), right=(0, 0))
    with pytest.raises(ValueError, match="^top boundary is not a full box$"):
        rotate_config(enumerate_configs(spec)[0])
