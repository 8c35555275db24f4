import pytest
from hypothesis import settings

from lltlattice.algebra import LaurentPoly
from lltlattice.yangbaxter import YBE_VARS

# Property tests draw the same examples on every run, so a failure in the
# suite reproduces without a seed.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def in_ybe_ring():
    """Maps a face weight in (x, t) to the polynomial in the Yang-Baxter
    ring (x, y, t) that puts it on the x line."""

    def embed(weight: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(YBE_VARS, {(xe, 0, te): c for (xe, te), c in weight.terms.items()})

    return embed
