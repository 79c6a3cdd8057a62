import numpy as np
import pytest

from tridg.mesh import generate_structured, perturb


@pytest.fixture
def unit_square_2x2():
    return generate_structured((0.0, 0.0, 1.0, 1.0), 2, 2, diagonal="uniform")


@pytest.fixture(scope="module")
def periodic_square():
    return generate_structured((0.0, 0.0, 1.0, 1.0), 5, 5,
                               diagonal="alternating", periodic=("x", "y"))


@pytest.fixture
def irregular_mesh():
    base = generate_structured((0.0, 0.0, 1.0, 1.0), 6, 6,
                               diagonal="alternating", periodic=("x", "y"))
    return perturb(base, amplitude=0.3, seed=7)


def random_states(rng, n, d, scale=1.0):
    return scale * rng.standard_normal((n, d))


@pytest.fixture
def rng():
    return np.random.default_rng(42)
