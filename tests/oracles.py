"""Independent reference implementations used only by the tests.

These deliberately avoid the production code paths: the hull oracle
enumerates supporting hyperplanes by brute force, facet figures come from
the dense slack matrix, determinants expand by cofactors, and integrals
run through scipy's quadrature.
"""

from __future__ import annotations

import itertools

import numpy as np

GAUSSIAN_4SIGMA_P = 6.334248366623996e-05  # two-sided tail mass at 4 sigma


def brute_force_facets(points: np.ndarray, tol: float = 1e-9) -> set[frozenset]:
    """All n-subsets whose hyperplane has every other point strictly below it.

    ``points`` is the full symmetrized (N, n) table of a body with the
    origin in its interior, so every facet hyperplane is {x : <a, x> = 1}
    for the ``a`` solving V a = 1 on the subset's rows.
    """
    N, n = points.shape
    subsets = np.array(list(itertools.combinations(range(N), n)))
    V = points[subsets]
    dets = np.linalg.det(V)
    usable = np.abs(dets) > 1e-12
    facets: set[frozenset] = set()
    if not usable.any():
        return facets
    sub = subsets[usable]
    ones = np.ones((int(usable.sum()), n, 1))
    a = np.linalg.solve(V[usable], ones)[:, :, 0]
    side = a @ points.T  # (S, N)
    rows = np.arange(sub.shape[0])[:, None]
    side[rows, sub] = -np.inf  # ignore the subset's own vertices
    is_facet = side.max(axis=1) < 1.0 - tol
    for row in sub[is_facet]:
        facets.add(frozenset(int(i) for i in row))
    return facets


def dense_facet_figures(
    vertices: np.ndarray,
    vertex_ids: np.ndarray,
    normals: np.ndarray,
    dists: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per facet: largest residual of its own vertices, largest slack, points on its plane.

    One (N, F) matrix of the slack of every point against every facet
    plane, with no use of the symmetry of the points or of the facets; a
    point is on the plane when its slack is within ``tol`` of 0.
    """
    slack = vertices @ normals.T - dists
    residual = np.abs(np.take_along_axis(slack, vertex_ids.T, axis=0)).max(axis=0)
    return residual, slack.max(axis=0), np.count_nonzero(np.abs(slack) <= tol, axis=0)


def cofactor_det(matrix: np.ndarray) -> float:
    """Determinant by cofactor expansion along the first row."""
    M = np.asarray(matrix, dtype=float)
    k = M.shape[0]
    if k == 1:
        return float(M[0, 0])
    total = 0.0
    for j in range(k):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * M[0, j] * cofactor_det(minor)
    return total


def double_loop_cross_inner(points: np.ndarray) -> float:
    """Sum over ordered pairs i != j of <P_i, P_j>, the O(k^2) way."""
    pts = np.asarray(points, dtype=float)
    total = 0.0
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i != j:
                total += float(pts[i] @ pts[j])
    return total


def segment_mean_square(p: np.ndarray, q: np.ndarray, panels: int = 1 << 14) -> float:
    """(1/length) integral of |x|^2 along the segment [p, q], by Simpson."""
    t = np.linspace(0.0, 1.0, 2 * panels + 1)
    x = p[None, :] + t[:, None] * (q - p)[None, :]
    f = np.einsum("ij,ij->i", x, x)
    w = np.ones_like(t)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    h = 1.0 / (2 * panels)
    return float((w * f).sum() * h / 3.0)
