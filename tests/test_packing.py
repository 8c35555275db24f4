"""Packed verdicts are sound: no field of a packed key carries into the next.

Each caller of ``_Packing`` states the largest value its fields reach, and
``_Packing`` derives the field width from it.  The tests here show that each
stated maximum is reached, and that every packed verdict of the checks is
unchanged with every field 8 bits wider, while one bit narrower breaks them.
The YBE tables' maxima are checked in ``test_yangbaxter``.  Packed keys are
a linear image of exponent vectors, so the sides of a correct model stay
equal at any width: a carry can only merge distinct monomials of unequal
sides.  So the YBE's widened run is made on a wrong crossing weight.
"""

import pytest

from lltlattice import cli, identities, tableaux, yangbaxter
from lltlattice.algebra import LaurentPoly, VarSet, _Packing
from lltlattice.identities import cauchy_kernel_truncated
from lltlattice.lattice import build_box_lattice, partition_function
from lltlattice.shapes import SkewShapeTuple

# the (n, k, D) of the Cauchy runs of `verify all`
_CAUCHY_RUNS = [(1, 1, 4), (2, 1, 4), (1, 2, 4), (2, 2, 3)]


def _verdicts(capsys):
    """The exit code and stdout of quick `verify all`, and the reports of the
    Cauchy runs of `verify all` and of engine equivalence."""
    code = cli.main(["verify", "all", "--quick", "--format", "json"])
    reports = [verify(*nkD).to_json_dict() for nkD in _CAUCHY_RUNS
               for verify in (identities.verify_cauchy, identities.verify_cauchy_rot)]
    reports.append(identities.verify_engine_equivalence().to_json_dict())
    return code, capsys.readouterr().out, reports


@pytest.fixture
def relaid(monkeypatch):
    """``relaid(remask)`` lays every packing out with the field mask
    ``remask(mask)`` in place of the one derived from its stated bound,
    which ``encode`` still checks."""
    init = _Packing.__init__

    def relay(remask):
        def init_relaid(self, vars, bound):
            init(self, vars, bound)
            init(self, vars, remask(self.mask))
            self.bound = bound

        monkeypatch.setattr(_Packing, "__init__", init_relaid)

    return relay


def test_verdicts_are_unchanged_with_every_field_8_bits_wider(capsys, relaid):
    normal = _verdicts(capsys)
    assert normal[0] == 0
    relaid(lambda mask: mask << 8 | 0xFF)
    assert _Packing(VarSet(nx=1), 3).mask == 0x3FF   # 2 bits, widened to 10
    assert _verdicts(capsys) == normal


def _ybe_failures():
    reports = [check(2) for check in (yangbaxter.ybe_check, yangbaxter.lstar_ybe_check)]
    return [(report.failed, report.first_failure) for report in reports]


def test_failing_ybe_reports_are_unchanged_with_every_field_8_bits_wider(monkeypatch, relaid):
    # the type-2 crossing weight times t: both checks fail, and a carry at
    # the normal width would change a count or a witness
    monkeypatch.setitem(yangbaxter._BRANCHES["R"], (0, 1, 1, 0), ({(-1, 1, 1): 1}, False))
    normal = _ybe_failures()
    assert [failed for failed, _ in normal] == [124, 124]
    relaid(lambda mask: mask << 8 | 0xFF)
    assert _ybe_failures() == normal
    # a side's fields reach 2k = 4, so two bits narrower carries, and is seen
    relaid(lambda mask: mask >> 2)
    assert _ybe_failures() != normal


def test_one_bit_narrower_fails_every_verdict(capsys, relaid):
    relaid(lambda mask: mask >> 1)
    code, out, reports = _verdicts(capsys)
    assert code == 1
    assert all(report["status"] == "FAIL" for report in reports)


@pytest.fixture
def stated_bounds(monkeypatch):
    """The bound of every packing built from here on, in order."""
    bounds = []
    init = _Packing.__init__

    def recording(self, vars, bound):
        bounds.append(bound)
        init(self, vars, bound)

    monkeypatch.setattr(_Packing, "__init__", recording)
    return bounds


def _largest_bounded_exponent(poly):
    return max(e for exps in poly.terms for e in exps[:-1])   # t is the unbounded last field


@pytest.mark.parametrize("k, M", [(1, 3), (2, 4), (3, 2)])
def test_row_dp_reaches_its_bound(stated_bounds, k, M):
    # the x_1 field of a right-exit box of empty partitions counts a right
    # step for every color in every column: k * ncols
    spec = build_box_lattice(((0,),) * k, M, 1, right_exit=True)
    poly = partition_function(spec)
    assert stated_bounds == [k * M] == [spec.k * spec.ncols]
    assert _largest_bounded_exponent(poly) == k * M


def test_tableau_engine_reaches_its_bound(stated_bounds):
    # one-row components fill every cell with 1; a multi-row shape cannot,
    # as a column's entries strictly increase: ((3, 2), (2,)) reaches 5 of 7
    shapes = [SkewShapeTuple.straight(beta) for beta in (((3,), (4,)), ((3, 2), (2,)))]
    reached = [_largest_bounded_exponent(tableaux.llt_coinv(shape, 2)) for shape in shapes]
    assert stated_bounds == [7, 7]
    assert reached == [7, 5]


@pytest.mark.parametrize("n, k, D", [(1, 1, 4), (2, 2, 3)])
def test_cauchy_layout_reaches_its_bound(stated_bounds, n, k, D):
    # the kernel's (x_1 y_1)^D fills an x and a y field to D
    kernel = cauchy_kernel_truncated(n, k, D)
    assert stated_bounds == [D]
    assert kernel.terms[(D,) + (0,) * (n - 1) + (D,) + (0,) * (n - 1) + (0,)] == 1
    assert _largest_bounded_exponent(kernel) == D
