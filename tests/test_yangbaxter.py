import itertools
import json
import random
from fractions import Fraction

import pytest

from lltlattice import cli, yangbaxter
from lltlattice.algebra import LaurentPoly, VarSet, _Packing
from lltlattice.yangbaxter import (
    YBE_VARS,
    _contract,
    _recursive_table,
    _sample_point,
    _tables,
    _unpack,
    ef_weight,
    l_recursive,
    lstar_ybe_check,
    r_recursive,
    r_weight,
    ybe_check,
)
import reference
from reference import l_weight, lstar_weight, minus, split, ybe_droite, ybe_gauche


def mono(xe=0, ye=0, te=0, c=1):
    return LaurentPoly.monomial(YBE_VARS, c, (xe, ye, te))


def one():
    return reference.one(YBE_VARS)


# per-color crossing states: absent, type 1, type 3, type 2, type 4
# (the order the two-color table uses for its columns)
_RSTATES = (
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (1, 1, 1, 1),
)


def _e():
    return mono(-1, 1)  # y/x


def _u():
    return mono(-1, 1, -1)  # y/(x t)


def _rtable():
    e, u = _e(), _u()
    ome, omu = minus(one(), e), minus(one(), u)  # 1 - y/x, 1 - y/(x t)
    return [
        [one(), ome, one(), e, e],
        [ome, ome * omu, ome, e * ome, e * ome],
        [one(), ome, one(), e, e],
        [e, u * ome, e, e * e, e * e],
        [e, u * ome, e, e * e, e * e],
    ]


def test_r_weight_two_color_table():
    expected = _rtable()
    checked = 0
    for bi, blue in enumerate(_RSTATES):
        for ri, red in enumerate(_RSTATES):
            I = (blue[0], red[0])
            J = (blue[1], red[1])
            K = (blue[2], red[2])
            L = (blue[3], red[3])
            assert r_weight(2, I, J, K, L) == expected[bi][ri], (blue, red)
            checked += 1
    assert checked == 25


def test_r_weight_zero_cases():
    assert r_weight(2, (0, 0), (0, 0), (0, 0), (0, 0)) == one()
    # the straight-through pattern is forbidden
    assert r_weight(1, (1,), (0,), (1,), (0,)).is_zero()
    # conservation failure
    assert r_weight(1, (1,), (0,), (0,), (0,)).is_zero()


def test_r_weight_factorizes_over_colors():
    # the total weight is the product of the per-color table entries with
    # their delta shifts.  At k = 4, four type-1 colors have d = 3, 2, 1, 0,
    # and the pairs with d-sets {0, 3} and {1, 2} give one monomial twice:
    # its coefficient is 2, not 1
    for k in (3, 4):
        coefficients = set()
        for combo in itertools.product(range(5), repeat=k):
            states = [_RSTATES[c] for c in combo]
            I = tuple(s[0] for s in states)
            J = tuple(s[1] for s in states)
            K = tuple(s[2] for s in states)
            L = tuple(s[3] for s in states)
            total = r_weight(k, I, J, K, L)
            prod = one()
            for i, s in enumerate(states):
                delta = sum(1 for j in range(i + 1, k) if states[j] == (0, 1, 0, 1))
                if s == (0, 1, 0, 1):
                    prod = prod * minus(one(), mono(-1, 1, -delta))
                elif s in ((0, 1, 1, 0), (1, 1, 1, 1)):
                    prod = prod * mono(-1, 1, -delta)
            assert total == prod
            coefficients |= set(total.terms.values())
        assert (2 in coefficients) == (k == 4)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_starred_crossing_is_substituted_r_weight(k):
    # the tables bar the crossing's x line on each spectral monomial; the
    # polynomial substitution x -> 1/(x t^(k-1)) is the reference
    xbar = {0: (1, (-1, 0, -(k - 1)))}
    rows = _tables(k, True)[0]   # the gauche's crossing rows
    assert sum(len(outs) for row in rows for outs in row) == 5 ** k
    for (I, J), outs in _rows(rows):
        for K, L, w in outs:
            expected = r_weight(k, I, J, K, L).substitute(xbar)
            assert _crossing(w, k) == expected, (I, J, K, L)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_crossing_rows_are_r_weight_times_x_to_the_k(k):
    # the tables expand each label prefix once, from the top color down, and
    # r_weight one crossing at a time: every crossing entry is x^k R, with
    # the droite's labels L + K 2^k folded below bit 3k
    rows, packing, low = _tables(k, False)[0], yangbaxter._packing(k), (1 << 3 * k) - 1
    assert sum(len(outs) for row in rows for outs in row) == 5 ** k
    for (I, J), outs in _rows(rows):
        for K, L, w in outs:
            assert {key & low for key, _ in w} == {L + (K << k)}, (I, J, K, L)
            expected = r_weight(k, I, J, K, L) * mono(k)
            assert packing.poly({key >> 3 * k: c for key, c in w}) == expected, (I, J, K, L)


# each entry point at k = 1 with a label that names color 2
@pytest.mark.parametrize("weigh", [
    pytest.param(lambda: r_weight(1, 2, 0, 2, 0), id="r_weight"),
    pytest.param(lambda: l_weight(1, 2, 0, 0, 2), id="l_weight"),
    pytest.param(lambda: lstar_weight(1, 0, (0, 1), 0, 2), id="lstar_weight"),
    pytest.param(lambda: ybe_gauche(1, (2, 0, 0, 0, 0, 0)), id="ybe_gauche"),
    pytest.param(lambda: ybe_droite(1, (0, 0, 0, 0, 0, (0, 1))), id="ybe_droite"),
    pytest.param(lambda: l_recursive(1)(2, 0, 0, 2), id="l_recursive"),
    pytest.param(lambda: r_recursive(1)(0, 2, 0, 2), id="r_recursive"),
])
def test_label_naming_a_color_above_k_is_rejected(weigh):
    with pytest.raises(ValueError, match=r"are not sets of colors among 1\.\.1$"):
        weigh()


def test_ef_weight_tables():
    assert ef_weight("E", (0, 0, 0, 0)) == one()
    for pic in ((1, 0, 0, 1), (0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0)):
        assert ef_weight("E", pic).is_zero()
    assert ef_weight("F", (1, 0, 1, 0)) == one()
    assert ef_weight("F", (1, 0, 0, 1)) == mono(1)
    assert ef_weight("F", (0, 1, 0, 1)) == mono(1)
    assert ef_weight("F", (0, 0, 0, 0)).is_zero()
    assert ef_weight("Ftilde", (0, 1, 0, 1)).is_zero()
    assert ef_weight("Etilde", (0, 1, 0, 1)) == minus(one(), _e())
    assert ef_weight("Ftilde", (0, 1, 1, 0)) == mono(-1, 1)
    with pytest.raises(ValueError):
        ef_weight("E", (1, 1, 0, 0))
    with pytest.raises(ValueError):
        ef_weight("Qtilde", (0, 0, 0, 0))


def _nonzero_closed_form(k, closed_form):
    labels = itertools.product(range(1 << k), repeat=4)
    return {label for label in labels if not closed_form(k, *label).is_zero()}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_l_recursion_matches_closed_form(k, in_ybe_ring):
    weight = l_recursive(k)
    size = 1 << k
    for I in range(size):
        for J in range(size):
            for K in range(size):
                for L in range(size):
                    assert weight(I, J, K, L) == in_ybe_ring(l_weight(k, I, J, K, L))
    # the oracle reads a missing key as zero; the table itself stores none
    table = _recursive_table(k, "L")
    assert not any(LaurentPoly(YBE_VARS, w).is_zero() for w in table.values())
    assert set(table) == _nonzero_closed_form(k, l_weight)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_r_recursion_matches_closed_form(k):
    weight = r_recursive(k)
    size = 1 << k
    for I in range(size):
        for J in range(size):
            for K in range(size):
                for L in range(size):
                    assert weight(I, J, K, L) == r_weight(k, I, J, K, L)
    table = _recursive_table(k, "R")
    assert not any(LaurentPoly(YBE_VARS, w).is_zero() for w in table.values())
    assert set(table) == _nonzero_closed_form(k, r_weight)


@pytest.mark.parametrize("k", [4, 5])
def test_r_recursion_matches_closed_form_at_larger_k(k):
    # the closed form counts each color's d from the labels and the recursion
    # from the pictures' shift flags; at k = 5 type-1 colors reach d = 4
    table = _recursive_table(k, "R")
    assert len(table) == 5 ** k
    for (I, J, K, L), w in table.items():
        assert LaurentPoly(YBE_VARS, w) == r_weight(k, I, J, K, L), (I, J, K, L)


def test_recursion_base_case():
    assert l_recursive(1)((1,), (0,), (0,), (1,)) == mono(1)
    assert r_recursive(1)((0,), (1,), (0,), (1,)) == minus(one(), _e())


# -- the intertwining relation ---------------------------------------------------


def test_ybe_all_zero_boundary():
    for k in (1, 2):
        assert ybe_gauche(k, (0, 0, 0, 0, 0, 0)) == one()
        assert ybe_droite(k, (0, 0, 0, 0, 0, 0)) == one()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ybe_base_case_first_word(k):
    # all colors enter at I2 and leave at J1: both sides are x^k t^C(k,2)
    full = (1 << k) - 1
    expected = mono(k, 0, k * (k - 1) // 2)
    assert ybe_gauche(k, (0, full, 0, full, 0, 0)) == expected
    assert ybe_droite(k, (0, full, 0, full, 0, 0)) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ybe_base_case_second_word(k):
    # all colors enter at I1 and leave at J2.  The printed closed form for
    # this word carries the same stray x^k as the printed first-word
    # computation; the relation the reduction actually proves is
    # value(second word) = (y/x)^k * value(first word), giving y^k t^C(k,2).
    full = (1 << k) - 1
    first = ybe_gauche(k, (0, full, 0, full, 0, 0))
    second_g = ybe_gauche(k, (full, 0, 0, 0, full, 0))
    second_d = ybe_droite(k, (full, 0, 0, 0, full, 0))
    ratio = mono(-k, k)
    assert second_g == ratio * first
    assert second_g == second_d
    assert second_g == mono(0, k, k * (k - 1) // 2)


@pytest.mark.xfail(
    reason="printed closed form x^k y^k t^C(k,2) contradicts the verified "
    "intertwining relation (no boundary attains it); the true value of the "
    "second base word is y^k t^C(k,2)",
    strict=True,
)
def test_ybe_second_word_printed_value():
    k = 2
    full = (1 << k) - 1
    printed = mono(k, k, k * (k - 1) // 2)
    assert ybe_gauche(k, (full, full, 0, full, full, 0)) == printed


def test_ybe_symbolic_small():
    rep1 = ybe_check(1, mode="symbolic")
    assert rep1.passed and rep1.checked == 64
    rep2 = ybe_check(2, mode="symbolic")
    assert rep2.passed and rep2.checked == 4096


def test_ybe_numeric_k3():
    rep = ybe_check(3, mode="numeric", seed=1, trials=3)
    assert rep.passed
    assert rep.params == {"seed": 1, "trials": 3}
    assert rep.checked == 3 * (1 << 18)


def test_ybe_numeric_deterministic():
    a = ybe_check(2, mode="numeric", seed=7, trials=2)
    b = ybe_check(2, mode="numeric", seed=7, trials=2)
    assert a.to_json_dict() == b.to_json_dict()


BAD_CHECKS = [
    (ybe_check, {"k": 1, "mode": "numeric", "trials": 0}, "trials must be at least 1"),
    (lstar_ybe_check, {"k": 2, "mode": "numeric", "trials": -3}, "trials must be at least 1"),
    (ybe_check, {"k": -1}, "k must be at least 0"),
    (lstar_ybe_check, {"k": 1, "mode": "exact"}, "unknown mode 'exact'"),
    (ybe_check, {"k": 1.5}, "k must be an integer, not 1.5"),
    (ybe_check, {"k": 1, "mode": "numeric", "seed": 1, "trials": 1.5},
     "trials must be an integer, not 1.5"),
]


@pytest.mark.parametrize("check, kwargs, message", BAD_CHECKS)
def test_ybe_check_rejects_bad_parameters(monkeypatch, check, kwargs, message):
    # rejected before any table is built, and never a vacuous PASS
    def no_tables(*args):
        raise AssertionError("the tables were built")

    monkeypatch.setattr(yangbaxter, "_tables", no_tables)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(**kwargs)


def _rows(table):
    """((I, J), row) for each row [I][J] of a table of the checks."""
    return (((I, J), outs) for I, row in enumerate(table) for J, outs in enumerate(row))


def _crossing(weight, k):
    """A crossing weight of k colors, [(folded key, coefficient)] packed
    times x^k, as a polynomial: the folded labels lie below bit 3k."""
    return _unpack(k, {key >> 3 * k: c for key, c in weight})


def _decoded_tables(k, starred):
    """The x-line face, y-line face and crossing rows, (I, J) -> {(K, L):
    weight}, read back from the checks' tables once per reference run: the
    faces from the droite's rows (the x-line face's K is the folded J3),
    the crossing from the gauche's."""
    rg, _, _, yd, xd, _ = yangbaxter._tables(k, starred)   # as patched by doubled_r_entry
    low, packing = (1 << k) - 1, yangbaxter._packing(k)

    def face(key):
        return packing.poly({key >> 3 * k: 1})

    return (
        {pair: {(key >> 2 * k & low, L): face(key) for L, key in outs} for pair, outs in _rows(xd)},
        {pair: {(K, L): face(key) for K, L, key in outs} for pair, outs in _rows(yd)},
        {pair: {(K, L): _crossing(w, k) for K, L, w in outs} for pair, outs in _rows(rg)},
    )


def _one_boundary(tables, boundary):
    """Both sides for one boundary, summed face by face over decoded
    polynomials: the reference the block contraction is checked against."""
    I1, I2, I3, J1, J2, J3 = boundary
    lx, ly, rr = tables
    g = LaurentPoly(YBE_VARS)
    for (K2, K1), rw in rr[(I2, I1)].items():
        for (K3, J1p), lw in lx[(I3, K1)].items():
            lyw = ly[(K3, K2)].get((J3, J2))
            if J1p == J1 and lyw is not None:
                g = g + rw * lw * lyw
    d = LaurentPoly(YBE_VARS)
    for (L3, L2), lyw in ly[(I3, I2)].items():
        for (J3p, L1), lw in lx[(L3, I1)].items():
            rw = rr[(L2, L1)].get((J2, J1))
            if J3p == J3 and rw is not None:
                d = d + lyw * lw * rw
    return g, d


def _label_triples(k):
    return itertools.product(range(1 << k), repeat=3)


def test_ybe_gauche_matches_sparse_contraction():
    # the per-boundary sum and the block contraction are independent routes
    for k, starred in itertools.product((1, 2), (False, True)):
        tables, reference = _tables(k, starred), _decoded_tables(k, starred)
        for incoming in _label_triples(k):
            g = split(k, _contract(tables, *incoming, droite=0))
            d = split(k, _contract(tables, *incoming, gauche=0, droite=1))
            # the split stores no zero coefficient and no empty boundary
            assert all(side and 0 not in side.values() for side in (*g.values(), *d.values()))
            # the signed block, split, is the per-boundary difference of the sides
            difference = {J: {m: c for m in g.get(J, {}).keys() | d.get(J, {}).keys()
                              if (c := g.get(J, {}).get(m, 0) - d.get(J, {}).get(m, 0))}
                          for J in g.keys() | d.keys()}
            assert split(k, _contract(tables, *incoming)) == {
                J: side for J, side in difference.items() if side}
            for outgoing in _label_triples(k):
                boundary = (*incoming, *outgoing)
                gauche, droite = _one_boundary(reference, boundary)
                assert gauche == _unpack(k, g.get(outgoing, {})), (k, starred, boundary)
                assert droite == _unpack(k, d.get(outgoing, {})), (k, starred, boundary)
                if not starred:
                    assert ybe_gauche(k, boundary) == gauche, (k, boundary)
                    assert ybe_droite(k, boundary) == droite, (k, boundary)


def _packed_monomials(tables, k):
    """The packed monomials that the droite's face tables and its crossing
    table hold, as two sets: the labels folded into a key lie below bit 3k."""
    _, _, _, yd, xd, rd = tables
    faces = {key >> 3 * k for _, outs in _rows(yd) for _, _, key in outs}
    faces |= {key >> 3 * k for _, outs in _rows(xd) for _, key in outs}
    return faces, {key >> 3 * k for _, outs in _rows(rd) for key, _ in outs}


@pytest.mark.parametrize("starred", [False, True])
@pytest.mark.parametrize("k, entries", [(1, 15), (2, 75), (3, 375)])
def test_contraction_converts_each_weight_once(monkeypatch, k, entries, starred):
    # building the tables packs each distinct monomial once, one per call,
    # and the contraction packs nothing; the weights come from exponent
    # terms, never from polynomials
    calls = []
    encode = _Packing.encode

    def counting(packing, terms, factors):
        calls.append(list(terms))
        return encode(packing, terms, factors)

    def no_poly(*args):
        raise AssertionError("a polynomial operation ran")

    monkeypatch.setattr(_Packing, "encode", counting)
    for op in ("__init__", "__mul__", "substitute"):
        monkeypatch.setattr(LaurentPoly, op, no_poly)
    tables = _tables(k, starred)
    monkeypatch.undo()
    # the gauche's three tables hold one entry per weight
    assert sum(len(outs) for rows in tables[:3] for row in rows for outs in row) == entries
    assert all(len(terms) == 1 for terms in calls)
    packed = [exps for (exps,) in calls]
    assert len(set(packed)) == len(packed) < entries
    faces, crossing = _packed_monomials(tables, k)
    held = yangbaxter._packing(k).decode(dict.fromkeys(faces | crossing, 1))
    assert set(packed) == set(held)
    monkeypatch.setattr(_Packing, "encode", no_poly)
    for incoming in _label_triples(k):
        for signs in ((1, -1), (1, 0), (0, -1)):
            _contract(tables, *incoming, *signs)


@pytest.mark.parametrize("starred", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_every_table_exponent_is_a_digit(monkeypatch, k, starred):
    # every bounded field the tables pack (x and y; t is the unbounded last
    # field) lies in [0, 2k], so a side's three weights stay within the
    # stated bound 6k: the starred tables reach 2k, the plain ones k, and
    # the crossing's x, packed times x^k, lies in [0, 2k]
    packed = []
    encode = _Packing.encode

    def recording(packing, terms, factors):
        assert (packing.bound, factors) == (6 * k, 3)
        packed.extend(terms)
        return encode(packing, terms, factors)

    monkeypatch.setattr(_Packing, "encode", recording)
    tables = _tables(k, starred)
    monkeypatch.undo()
    bounded = [e for x, y, _ in packed for e in (x, y)]
    assert (min(bounded), max(bounded)) == (0, 2 * k if starred else k)
    _, crossing = _packed_monomials(tables, k)
    crossing_x = {x for x, _, _ in yangbaxter._packing(k).decode(dict.fromkeys(crossing, 1))}
    assert min(crossing_x) >= 0 and max(crossing_x) <= 2 * k


def _reference_report(k, starred, points=None, sides_of=None):
    """(failed, first failure) of walking the per-boundary reference over
    every boundary in order: comparing the polynomials, or with ``points``
    their values at each point in turn.  ``sides_of`` maps a boundary to
    its two sides; by default they are summed face by face."""
    if sides_of is None:
        tables = _decoded_tables(k, starred)

        def sides_of(boundary):
            return _one_boundary(tables, boundary)

    sides = [(b, *sides_of(b)) for b in itertools.product(range(1 << k), repeat=6)]
    failed, first = 0, None
    for point in [None] if points is None else points:
        for boundary, g, d in sides:
            if point is not None:
                g, d = g.eval_rational(point), d.eval_rational(point)
            if g != d:
                failed += 1
                if first is None:
                    first = {
                        "boundary": {
                            name: [(label >> i) & 1 for i in range(k)]
                            for name, label in zip(("I1", "I2", "I3", "J1", "J2", "J3"), boundary)
                        },
                        "gauche": g.to_text() if point is None else str(g),
                        "droite": d.to_text() if point is None else str(d),
                    }
                    if point is not None:
                        first["point"] = dict(zip("xyt", map(str, point)))
    return failed, first


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "check, starred", [(ybe_check, False), (lstar_ybe_check, True)], ids=["ybe", "lstar-ybe"]
)
def test_numeric_check_matches_evaluating_every_boundary(doubled_r_entry, check, starred, seed):
    # numeric mode evaluates only where the symbolic sides differ; against a
    # wrong crossing weight it must report what evaluating all 4,096
    # boundaries reports
    rep = check(2, mode="numeric", seed=seed, trials=2)
    rng = random.Random(seed)
    failed, first = _reference_report(2, starred, [_sample_point(rng) for _ in range(2)])
    assert failed > 0
    assert (rep.failed, rep.first_failure) == (failed, first)


# doubling row (0, 0) makes two boundaries of the first failing block differ,
# which pins the order inside a block too
@pytest.mark.parametrize("doubled_r_entry", [(1, 0), (0, 0)], indirect=True, ids=["row10", "row00"])
@pytest.mark.parametrize(
    "check, starred", [(ybe_check, False), (lstar_ybe_check, True)], ids=["ybe", "lstar-ybe"]
)
def test_symbolic_check_matches_walking_every_boundary(doubled_r_entry, check, starred):
    # the blocks are contracted one at a time; against a wrong crossing weight
    # the count and the first failure must be those of walking all 4,096
    # boundaries in order
    rep = check(2, mode="symbolic")
    failed, first = _reference_report(2, starred)
    assert failed > 0
    assert (rep.failed, rep.first_failure) == (failed, first)


# -- the gray-face variant -------------------------------------------------------


def test_lstar_all_zero_boundary():
    for k in (1, 2):
        g, d = _lstar_sides(k, (0, 0, 0, 0, 0, 0))
        expected = mono(k, 0, k * (k - 1) // 2)
        assert g == expected and d == expected


def _lstar_sides(k, boundary):
    return _one_boundary(_decoded_tables(k, True), boundary)


def test_lstar_ybe_symbolic():
    assert lstar_ybe_check(1, mode="symbolic").passed
    assert lstar_ybe_check(2, mode="symbolic").passed


def test_lstar_side_is_substituted_plain_side():
    # gray side = x^k t^C(k,2) times the plain side at x -> 1/(x t^(k-1))
    k = 2
    xbar = {0: (1, (-1, 0, -(k - 1)))}
    scale = mono(k, 0, k * (k - 1) // 2)
    rng = random.Random(4)
    for _ in range(20):
        boundary = tuple(rng.randrange(1 << k) for _ in range(6))
        plain = ybe_gauche(k, boundary)
        gray, _ = _lstar_sides(k, boundary)
        assert gray == scale * plain.substitute(xbar)


def test_lstar_weight_consistency(in_ybe_ring):
    k = 2
    for I in range(4):
        for J in range(4):
            if I & J:
                continue
            present = I | J
            for K in (present, 0):
                L = present & ~K
                xbar = {0: (1, (-1, 0, -(k - 1)))}
                scale = mono(k, 0, k * (k - 1) // 2)
                direct = in_ybe_ring(lstar_weight(k, I, J, K, L))
                via_sub = scale * in_ybe_ring(l_weight(k, I, J, K, L)).substitute(xbar)
                assert direct == via_sub


def test_numeric_point_constraints():
    rng = random.Random(11)
    for _ in range(50):
        x, y, t = _sample_point(rng)
        assert x != 0 and y != 0 and x != y
        assert t not in (Fraction(0), Fraction(1))


# -- a wrong crossing weight is reported -------------------------------------------


@pytest.fixture
def doubled_r_entry(monkeypatch, request):
    """Double the one crossing weight of row (I, J) = (1, 0) at k = 2, or of
    the row a test passes as the fixture's parameter."""
    original = yangbaxter._tables
    row = getattr(request, "param", (1, 0))

    def broken(k, starred):
        rg, *faces, rd = original(k, starred)
        if k != 2:
            return (rg, *faces, rd)
        I, J = row
        ((K, L, w),) = rg[I][J]
        rg, rd = [list(r) for r in rg], [list(r) for r in rd]
        # the row's one crossing entry holds all of the droite's row
        rd[I][J] = doubled = [(key, 2 * c) for key, c in w]
        rg[I][J] = [(K, L, doubled)]
        return (rg, *faces, rd)

    monkeypatch.setattr(yangbaxter, "_tables", broken)


@pytest.fixture
def crossing_times_t(monkeypatch, request):
    """The crossing weight at one label tuple (I, J, K, L), the fixture's
    parameter, times t, in the checks' tables and the reference's alike:
    both build their crossings through yangbaxter._crossing_rows."""
    crossing_rows = yangbaxter._crossing_rows

    def wrong(k):
        return {(I, J): [(K, L, {(x, y, t + 1): c for (x, y, t), c in terms.items()}
                          if (I, J, K, L) == request.param else terms) for K, L, terms in row]
                for (I, J), row in crossing_rows(k).items()}

    monkeypatch.setattr(yangbaxter, "_crossing_rows", wrong)
    reference._plain_tables.cache_clear()
    yield
    reference._plain_tables.cache_clear()


# at k = 2: both colors of type 1, and color 1 of type 3 with color 2 of type 4
@pytest.mark.parametrize("crossing_times_t", [(0, 3, 0, 3), (3, 2, 2, 3)], indirect=True)
@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_check_matches_the_reference_sides_boundary_by_boundary(crossing_times_t, mode):
    # the signed sum finds the failing blocks and its one-side reruns their
    # boundaries: the count and the first failure must be those of comparing
    # ybe_gauche with ybe_droite at every boundary in order
    rep = ybe_check(2, mode=mode, seed=5, trials=2)
    rng = random.Random(5)
    points = None if mode == "symbolic" else [_sample_point(rng) for _ in range(2)]
    failed, first = _reference_report(
        2, False, points, lambda boundary: (ybe_gauche(2, boundary), ybe_droite(2, boundary)))
    assert failed > 0
    assert (rep.failed, rep.first_failure) == (failed, first)


_FIRST_BOUNDARY = {
    "I1": [0, 0], "I2": [0, 0], "I3": [1, 0], "J1": [1, 0], "J2": [0, 0], "J3": [0, 0]
}
_POINT = {"x": "2/5", "y": "3", "t": "7/10"}


@pytest.mark.parametrize(
    "check, mode, failed, gauche, droite",
    [
        (ybe_check, "symbolic", 26, "x1", "x1 + y1"),
        (ybe_check, "numeric", 52, "2/5", "17/5"),
        (lstar_ybe_check, "symbolic", 26, "x1", "x1^2*y1*t + x1"),
        (lstar_ybe_check, "numeric", 52, "2/5", "92/125"),
    ],
)
def test_ybe_reports_first_failure(doubled_r_entry, check, mode, failed, gauche, droite):
    rep = check(2, mode=mode, seed=3, trials=2)
    assert rep.status == "FAIL" and rep.failed == failed
    expected = {"boundary": _FIRST_BOUNDARY, "gauche": gauche, "droite": droite}
    if mode == "numeric":
        expected["point"] = _POINT
    assert rep.first_failure == expected


def test_ybe_failure_exit_1(doubled_r_entry, capsys):
    assert cli.main(["verify", "ybe"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "FAIL ybe k=2 mode=symbolic checked=4096 failed=26",
        '  first failure: {"boundary": {"I1": [0, 0], "I2": [0, 0], "I3": [1, 0], '
        '"J1": [1, 0], "J2": [0, 0], "J3": [0, 0]}, "droite": "x1 + y1", "gauche": "x1"}',
        "summary: 0/1 passed",
    ]


def test_ybe_failure_exit_1_json(doubled_r_entry, capsys):
    assert cli.main(["verify", "ybe", "--format", "json"]) == 1
    report, summary = capsys.readouterr().out.splitlines()
    assert json.loads(report) == {
        "identity": "ybe", "k": 2, "mode": "symbolic", "status": "FAIL",
        "checked": 4096, "failed": 26,
        "first_failure": {"boundary": _FIRST_BOUNDARY, "gauche": "x1", "droite": "x1 + y1"},
    }
    assert summary == "summary: 0/1 passed"
