from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from latmech import sampling
from latmech.lattice import Lattice, body_centred_cubic, diamond, perturb, simple_cubic, tessellate

# a shear of the cell, for cells that are not orthogonal
SKEW = np.array([[1.0, 0.3, -0.2], [0.0, 0.9, 0.25], [0.1, 0.0, 1.1]])


def random_symmetric_tensor4(rng) -> np.ndarray:
    """Random stiffness-like tensor with both index symmetries."""
    raw = rng.standard_normal((3, 3, 3, 3))
    minor = (raw + raw.transpose(1, 0, 2, 3) + raw.transpose(0, 1, 3, 2)
             + raw.transpose(1, 0, 3, 2)) / 4.0
    return (minor + minor.transpose(2, 3, 0, 1)) / 2.0


def perturbed_cell(base, n: int, level: float, seed: int, skewed: bool) -> Lattice:
    """``base()`` tessellated ``n`` times, sheared by ``SKEW`` if ``skewed``, and
    perturbed by ``level`` unless it has a single node."""
    lat = tessellate(base(), n)
    if skewed:
        lat = replace(lat, cell=SKEW @ lat.cell)
    return perturb(lat, level, seed) if lat.node_count >= 2 else lat


# the arguments of perturbed_cell, for Hypothesis
PERTURBED_CELLS = dict(
    base=st.sampled_from([simple_cubic, body_centred_cubic, diamond]),
    n=st.integers(1, 3),
    level=st.floats(0.02, 0.1),
    seed=st.integers(0, 10_000),
    skewed=st.booleans(),
)


def random_symmetric_matrix(rng, n: int = 6) -> np.ndarray:
    raw = rng.standard_normal((n, n))
    return 0.5 * (raw + raw.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture
def rotations():
    return sampling.random_rotations(50, seed=101)


@pytest.fixture
def catalogue_lattices():
    return [simple_cubic(), body_centred_cubic(), diamond()]
