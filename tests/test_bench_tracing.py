"""The benchmark's tracer patches library names from outside; it must find
every one of them, and must put back exactly what it replaced."""

import sys
from pathlib import Path

from lltlattice import identities
from lltlattice.algebra import LaurentPoly, VarSet
import reference

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from spans import Tracer  # noqa: E402

PATCHED = [
    (identities, "llt"),
    (identities, "cauchy_kernel_truncated"),
    (identities, "verify_cauchy"),
    (LaurentPoly, "__mul__"),
    (LaurentPoly, "__rmul__"),
    (LaurentPoly, "__add__"),
    (LaurentPoly, "truncate_x"),
]


def test_tracer_installs_and_uninstalls():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in PATCHED}
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr in PATCHED:
            assert vars(owner)[attr] is not before[owner, attr], attr
        assert identities.verify_cauchy(1, 2, 2).passed
        assert identities.verify_cauchy_rot(1, 2, 2).passed
        assert identities.verify_skew_cauchy(((1,), (0,)), 1, 2, 2).passed
        # the drivers build their kernels packed; the public kernel is its own span
        assert len(identities.cauchy_kernel_truncated(1, 2, 2).terms) == 6
        # the Cauchy sums multiply no polynomials; one explicit product
        # exercises the multiplication counter
        x = reference.variable(VarSet(nx=1), 0)
        assert (x + 1) * (x + 1) == LaurentPoly(x.vars, {(2, 0): 1, (1, 0): 2, (0, 0): 1})
    finally:
        tracer.uninstall()
    for owner, attr in PATCHED:
        assert vars(owner)[attr] is before[owner, attr], attr
    # the kernel span is the one explicit call, at the top level
    kernel = tracer.name_ids["identities.cauchy_kernel_truncated"]
    assert [span[3] for span in tracer.spans if span[0] == kernel] == [-1]
    drivers = ["identities.verify_cauchy", "identities.verify_cauchy_rot",
               "identities.verify_skew_cauchy"]
    assert [tracer.agg[name][0] for name in drivers] == [1, 1, 1]
    assert tracer.counters["algebra.mul_term_pairs"] > 0
