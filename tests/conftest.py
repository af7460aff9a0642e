import math
from itertools import permutations, product

import numpy as np
import pytest

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def random_unit(rng: np.random.Generator) -> np.ndarray:
    # the norm in the fixed order (x*x + y*y) + z*z, so the draws do not depend on the BLAS kernel
    while True:
        v = rng.normal(size=3)
        x, y, z = v.tolist()
        norm = math.sqrt((x * x + y * y) + z * z)
        if norm > 1e-6:
            return v / norm


def rational_axes() -> list[tuple[tuple[int, int, int], int]]:
    """Signed permutations of (1, 0, 0), (3, 4, 0)/5 and (2, 3, 6)/7, as (numerators, denominator)."""
    axes = set()
    for triple, denominator in (((1, 0, 0), 1), ((3, 4, 0), 5), ((2, 3, 6), 7)):
        for perm in permutations(triple):
            for signs in product((1, -1), repeat=3):
                axes.add((tuple(sign * k for sign, k in zip(signs, perm)), denominator))
    return sorted(axes)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
