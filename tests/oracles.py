"""Independent reference implementations used only by the tests.

These deliberately avoid the production code paths: the hull oracle
enumerates supporting hyperplanes by brute force, facet figures come from
the dense slack matrix, determinants expand by cofactors, integrals run
through scipy's quadrature, and the per-facet mean square has a closed form
and a term-by-term pullback that pin each other.  The map to isotropic
position and the contained-ball bound on L_K check the isotropy constant
from outside its Cholesky path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from isohull.hull import UNIT_VERTEX_TOL, FacetComplex
from isohull.isotropy import NotSPDError
from isohull.moments import UnitVertexError, polytope_covariance, polytope_volume
from isohull.sphere_stats import PointCloud, ball_volume

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


def simplex_pair_moment(n: int, same: bool) -> float:
    """Normalized simplex moment (1/|D|) int_D x_{i1} x_{i2} dx.

    Over the standard (n-1)-simplex in barycentric coordinates this equals
    2/(n(n+1)) when i1 = i2 and 1/(n(n+1)) otherwise.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return (2.0 if same else 1.0) / (n * (n + 1))


def facet_mean_square(vertices: np.ndarray) -> float:
    """(1/|F|) int_F |x|^2 for a simplex facet with unit-norm vertices.

    Closed form 2/(n+1) + (1/(n(n+1))) sum_{i1 != i2} <Q_i1, Q_i2>.
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("expected n vertices in R^n")
    worst = float(np.abs(np.linalg.norm(V, axis=-1) - 1.0).max())
    if worst > UNIT_VERTEX_TOL:
        raise UnitVertexError(f"closed form requires unit vertices (worst deviation {worst:.3e})")
    n = V.shape[0]
    s = V.sum(axis=0)
    cross = float(s @ s) - float(np.einsum("ij,ij->", V, V))
    return 2.0 / (n + 1) + cross / (n * (n + 1))


def facet_mean_square_pullback(vertices: np.ndarray) -> float:
    """Same facet integral through the simplex parametrization, term by term.

    Pulls |x|^2 back through the linear map sending the standard simplex
    onto the facet and sums <Q_i1, Q_i2> against the per-pair simplex
    moments.  Kept deliberately independent of :func:`facet_mean_square`
    so the two routes can be pinned against each other.
    """
    V = np.asarray(vertices, dtype=float)
    n = V.shape[0]
    gram = V @ V.T
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            total += gram[i1, i2] * simplex_pair_moment(n, i1 == i2)
    return total


def isotropic_transform(fc: FacetComplex) -> tuple[np.ndarray, PointCloud]:
    """Linear map T putting the body in isotropic position, plus T(base points).

    T = c * Cov^{-1/2} with the symmetric inverse square root (rotation
    part fixed to the identity) and c chosen so the image has volume one.
    Rows :m of the vertex table are the base points, so rebuilding the
    pipeline on the returned cloud yields covariance L_K^2 * Identity.
    """
    vol = polytope_volume(fc)
    cov = polytope_covariance(fc)
    eigvals, Q = np.linalg.eigh(cov)
    if np.any(eigvals <= 0.0):
        raise NotSPDError("not SPD: covariance has a non-positive eigenvalue")
    inv_sqrt = (Q * (eigvals**-0.5)[None, :]) @ Q.T
    det_inv_sqrt = float(np.prod(eigvals**-0.5))
    scale = (det_inv_sqrt * vol) ** (-1.0 / fc.n)
    T = scale * inv_sqrt
    return T, PointCloud(fc.vertices[: fc.num_points] @ T.T)


def ball_fallback_bound(n: int, inradius: float) -> float:
    """Upper bound on L_K from a contained ball of the given radius.

    When r * B_2^n lies inside the (unit-vertex) body,
    L_K <= sqrt((w_n r^n)^{-2/n} / n) = 1 / (sqrt(n) r w_n^{1/n}).
    Decreasing in the inradius; O(1) in n for r bounded below.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if inradius <= 0.0:
        raise ValueError(f"inradius must be positive, got {inradius}")
    log_wn = math.log(ball_volume(n))
    return math.exp(-log_wn / n - math.log(inradius)) / math.sqrt(n)
