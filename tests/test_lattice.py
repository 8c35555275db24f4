import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lltlattice.algebra import LaurentPoly, VarSet
from lltlattice.lattice import (
    LatticeConfig,
    LatticeSpec,
    _color_columns,
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
    for bit in range(spec.k):
        bottom = sum((m >> bit) & 1 for m in spec.bottom)
        top = sum((m >> bit) & 1 for m in spec.top)
        assert bottom == top


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
    levels, made = [{_color_columns(spec.bottom, spec.k)}], 0
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
    assert [len(level) for level in levels] == [1, 18, 45, 1]
    assert made == 260


def test_anchor_reachable_levels():
    spec = build_lattice(SkewShapeTuple.straight(((3, 2), (2, 1), (2, 0))), 7)
    levels, made = _reachable_levels(spec)
    assert [len(level) for level in levels] == [1, 36, 135, 135, 135, 135, 135, 1]
    assert made == 10_062


@pytest.mark.parametrize("spec", [
    build_lattice(SECOND, 2),
    build_box_lattice(((2, 1), (1, 0)), 4, 2),
    build_box_lattice(((2, 1, 0), (1, 1, 0)), 5, 3, right_exit=True),
], ids=["plain", "box", "right-exit"])
def test_last_row_yields_only_the_top(spec):
    levels, _ = _reachable_levels(spec)
    top = _color_columns(spec.top, spec.k)
    assert levels[-1] == {top}
    step = _row_transitions(spec)
    for state in levels[-2]:
        assert {t for t, _, _ in step(spec.n, state)} <= {top}


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
    for spec in _random_specs(random.Random(47), 30):
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
    assert checked == 7_376


def _reference_partition_function(spec):
    """Sum over every labelling, row by row and face by face, with
    face_weight_exponents as the only rule."""
    k, ncols, vars = spec.k, spec.ncols, VarSet(nx=spec.n)
    states = {spec.bottom: LaurentPoly.one(vars)}
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
    return states.get(spec.top, LaurentPoly.zero(vars))


def test_right_labels_that_differ_by_row():
    # color 1 leaves through the right edge on row 1 and color 2 on row 3 of
    # 4; color 2 can keep its columns over rows 1-3, so a move memo keyed
    # without the exit bit would give row 3 the moves of row 1
    spec = LatticeSpec(k=2, r=0, bottom=(3, 3, 0, 0), top=(0, 1, 2, 0), right=(1, 0, 2, 0))
    configs = enumerate_configs(spec)
    total = LaurentPoly.zero(VarSet(nx=4))
    for config in configs:
        total = total + config.weight()
    assert configs
    assert total == partition_function(spec) == _reference_partition_function(spec)


@pytest.mark.parametrize("bottom, top, right, message", [
    ((2, 0), (0, 2), (0,), "^bottom label 2 at column 0 is not a set of colors among 1..1$"),
    ((3, 0), (0, 3), (0,), "^bottom label 3 at column 0 is not a set of colors among 1..1$"),
    ((-1, 0), (0, -1), (0,), "^bottom label -1 at column 0 is not a set of colors among 1..1$"),
    ((1, 0), (0, 1, 0), (0,), "differ in length"),
    ((1, 0), (0, 1), (1,), "color 1 is not conserved"),
], ids=["color-2", "colors-1-2", "negative", "lengths", "conservation"])
def test_lattice_spec_refuses_bad_boundaries(bottom, top, right, message):
    # k = 1: a label naming color 2, or a negative label, is not a set of colors
    with pytest.raises(ValueError, match=message):
        LatticeSpec(k=1, r=0, bottom=bottom, top=top, right=right)


@pytest.mark.parametrize("k, given, masks", [
    (1, (((1,),), ((1,),), (0,)), ((1,), (1,), (0,))),
    (2, (((1, 1), 0), (0, (0, 1)), ((1, 0),)), ((3, 0), (0, 2), (1,))),
], ids=["one-color", "two-colors"])
def test_lattice_spec_keeps_the_masks_of_0_1_tuple_labels(k, given, masks):
    spec, plain = (LatticeSpec(k, 0, *labels) for labels in (given, masks))
    assert (spec.bottom, spec.top, spec.right) == masks
    assert spec == plain
    assert partition_function(spec) == partition_function(plain) != 0


@pytest.mark.parametrize("bottom, top, right, message", [
    ((3, 4, 0), (1, 2, 0), (0, 0), "bottom label 4 at column 3"),
    ((3, 1, 0), (1, 2, 5), (0, 0), "top label 5 at column 4"),
    ((3, 1, 0), (1, 2, 1), (0, 4), "right label 4 at row 2"),
], ids=["bottom", "top", "right"])
def test_lattice_spec_names_the_side_and_place_of_a_bad_label(bottom, top, right, message):
    # k = 2 and the columns start at r = 2: columns 2, 3, 4, rows 1, 2
    with pytest.raises(ValueError, match=f"^{message} is not a set of colors among 1..2$"):
        LatticeSpec(k=2, r=2, bottom=bottom, top=top, right=right)


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
    while checked < 200:
        shape = random_skew_tuple(rng, max_k=3, max_rows=2, max_part=3)
        n = rng.randint(1, 3)
        for T in enumerate_ssyt(shape, n)[:10]:
            config = ssyt_to_config(T, n)
            assert config_to_ssyt(config) == T
            checked += 1


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
        config.verticals[:1] + (tuple(0 for _ in config.verticals[1]),) + config.verticals[2:],
    )
    with pytest.raises(ValueError):
        config_to_ssyt(broken)


# k = 1 on columns 0, 1 over two rows: _STEP's path steps right on some row,
# and _EXIT's leaves through the right edge on row 2
_STEP = LatticeSpec(k=1, r=0, bottom=(1, 0), top=(0, 1), right=(0, 0))
_EXIT = LatticeSpec(k=1, r=0, bottom=(1, 0), top=(0, 0), right=(0, 1))
_OFF_BOUNDARY = "^levels 0..2 do not run from the bottom boundary to the top$"


@pytest.mark.parametrize("spec, verticals, message", [
    (_STEP, ((0, 1), (0, 1), (0, 1)), _OFF_BOUNDARY),
    (_STEP, ((1, 0), (1, 0), (1, 0)), _OFF_BOUNDARY),
    (_STEP, ((1, 0), (0, 1)), _OFF_BOUNDARY),
    (_EXIT, ((1, 0), (0, 0), (0, 0)), "^row 1 passes 1 out of the right edge, not its right label 0$"),
], ids=["bottom", "top", "levels", "right-edge"])
def test_configs_off_their_spec_are_refused(spec, verticals, message):
    # every face of these is admissible: only the boundary is wrong
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
        # bottom boundary of the image is the empty tuple's label set
        k = spec.k
        full = (1 << k) - 1
        assert all(
            m == (full if c < spec.n else 0)
            for c, m in enumerate(rotated.verticals[0])
        )


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
        for config in enumerate_configs(spec)[:4]:
            rotated = rotate_config(config)
            assert config.coinv() - rotated.coinv() == expected
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
    narrow = LatticeSpec(k=1, r=-1, bottom=(1,), top=(1,), right=(0, 0))
    with pytest.raises(ValueError, match="^top boundary is not a full box$"):
        rotate_config(LatticeConfig(narrow, ((1,),) * 3))
