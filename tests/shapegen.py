"""Seeded random shapes: the inputs of the randomized tests.

Each draw depends only on the ``random.Random`` passed in, so a test that
seeds its generator sees the same shapes on every run.
"""

import random

from lltlattice.shapes import Partition, ShapeTuple, SkewShapeTuple


def random_partition(rng: random.Random, max_rows: int, max_part: int) -> Partition:
    nrows = rng.randint(1, max_rows)
    return tuple(sorted((rng.randint(0, max_part) for _ in range(nrows)), reverse=True))


def random_skew_tuple(rng: random.Random, max_k: int = 3, max_rows: int = 3,
                      max_part: int = 3) -> SkewShapeTuple:
    k = rng.randint(1, max_k)
    beta = []
    gamma = []
    for _ in range(k):
        b = random_partition(rng, max_rows, max_part)
        # the i-th largest of values bounded by the (sorted) parts stays bounded
        g = tuple(sorted((rng.randint(0, v) for v in b), reverse=True))
        beta.append(b)
        gamma.append(g)
    return SkewShapeTuple(tuple(beta), tuple(gamma))


def random_straight_tuple(rng: random.Random, k: int, n: int, max_part: int) -> ShapeTuple:
    return tuple(
        tuple(sorted((rng.randint(0, max_part) for _ in range(n)), reverse=True))
        for _ in range(k)
    )
