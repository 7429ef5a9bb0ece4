from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from isohull.hull import FacetComplex, symmetric_hull
from isohull.sphere_stats import RngStream, sample_symmetric_cloud


def cross_polytope_complex(n: int) -> FacetComplex:
    return symmetric_hull(np.eye(n))


def random_complex(n: int, m: int, seed: int) -> FacetComplex:
    return symmetric_hull(sample_symmetric_cloud(n, m, seed))


def implied_facets(fc: FacetComplex) -> dict[str, np.ndarray]:
    """Every facet of R u -R: the complex's rows, then their mirrors, built row by row.

    A mirror's id row is its row's ids moved by m modulo 2m and sorted; its
    normal is negated, and its distance, cone and cross sum are the row's.
    """
    two_m = 2 * fc.num_points
    mirror = [sorted((int(i) + two_m // 2) % two_m for i in row) for row in fc.vertex_ids]
    return {
        "ids": np.concatenate([fc.vertex_ids, np.array(mirror, dtype=np.int64).reshape(-1, fc.n)]),
        "normals": np.concatenate([fc.normals, -fc.normals]),
        "dists": np.concatenate([fc.dists, fc.dists]),
        "cones": np.concatenate([fc.cones, fc.cones]),
        "cross_sums": np.concatenate([fc.cross_sums, fc.cross_sums]),
    }


def perfbench_module(name: str) -> types.ModuleType:
    """``perfbench/<name>.py`` executed from its path; nothing is imported as a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


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
    from isohull.calibration import load_fixture

    return load_fixture()
