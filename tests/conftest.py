from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from isohull.hull import FacetComplex, symmetric_hull
from isohull.sphere_stats import PointCloud, RngStream, sample_symmetric_cloud


def cross_polytope_complex(n: int) -> FacetComplex:
    return symmetric_hull(PointCloud(np.eye(n)))


def random_complex(n: int, m: int, seed: int) -> FacetComplex:
    return symmetric_hull(sample_symmetric_cloud(n, m, seed))


def bounded_condition_map(stream: RngStream, n: int, low: float, span: float) -> np.ndarray:
    """U diag(s) V^t with orthogonal U, V and singular values s in [low, low + span)."""
    U, _ = np.linalg.qr(stream.gaussian((n, n)))
    V, _ = np.linalg.qr(stream.gaussian((n, n)))
    return U @ np.diag(low + span * stream.uniform(n)) @ V.T


@pytest.fixture
def octahedron() -> FacetComplex:
    return cross_polytope_complex(3)


@pytest.fixture
def square() -> FacetComplex:
    return cross_polytope_complex(2)


@pytest.fixture(scope="session")
def calibration() -> dict:
    from isohull.harness import load_fixture

    return load_fixture()
