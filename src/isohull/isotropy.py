"""Isotropy constant, isotropic position, and the cone-decomposition bound.

For a centered convex body the minimum of the normalized second-moment
functional over invertible linear maps is attained in closed form by the
covariance determinant:

    L_K^2 = det(Cov)^{1/n} / |K|^{2/n}

while plugging the identity map into the same functional gives the weaker
bound sqrt(mean_square / (n |K|^{2/n})).  Both are affine invariants of
the body; their gap measures how far the covariance is from a multiple of
the identity.

The determinant comes from numpy's Cholesky factor, with a pivot guard
that rejects near-singular covariances; it is the pipeline's one SPD gate
(:func:`isohull.moments.polytope_covariance` does not factorize).  The
symmetric inverse square root comes from numpy's ``eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hull import FacetComplex
from .moments import polytope_covariance, polytope_volume
from .sphere_stats import PointCloud, ball_volume

__all__ = [
    "IsotropyReport",
    "isotropy_constant",
    "isotropic_transform",
    "ball_fallback_bound",
    "NotSPDError",
]

SYMMETRY_TOL = 1e-10
PIVOT_TOL = 1e-14


class NotSPDError(ValueError):
    """Matrix is not symmetric positive-definite."""


@dataclass(frozen=True)
class IsotropyReport:
    """Scalars derived from one body: L_K and its identity-map upper bound."""

    l_k: float
    identity_bound: float
    vol_root: float
    det_cov: float


def isotropy_constant(volume: float, covariance: np.ndarray) -> IsotropyReport:
    """Isotropy constant of a centered body from its volume and covariance.

    ``l_k`` is the closed-form minimizer over invertible linear maps;
    ``identity_bound`` is the identity-map value
    sqrt(trace(covariance) / (n volume^{2/n})), so l_k <= identity_bound
    always, with equality exactly when the covariance is isotropic.
    Both quantities are invariant under rotations and scalings of the body.
    Raises :class:`NotSPDError` when the covariance is not symmetric, its
    Cholesky fails or a pivot is at or below PIVOT_TOL.
    """
    if volume <= 0.0:
        raise ValueError(f"volume must be positive, got {volume}")
    cov = np.asarray(covariance, dtype=float)
    n = cov.shape[0]
    if float(np.abs(cov - cov.T).max()) > SYMMETRY_TOL:
        raise NotSPDError("not SPD: matrix is not symmetric")
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"not SPD: {exc}") from exc
    pivots = np.diag(L) ** 2
    if np.any(pivots <= PIVOT_TOL):
        raise NotSPDError(f"not SPD: pivot {pivots.min():.3e} at or below {PIVOT_TOL}")
    det = float(np.prod(np.diag(L))) ** 2
    vol_root = volume ** (1.0 / n)
    l_k = det ** (0.5 / n) / volume ** (1.0 / n)
    mean_square = float(np.trace(cov))
    identity_bound = math.sqrt(mean_square / (n * volume ** (2.0 / n)))
    return IsotropyReport(
        l_k=l_k, identity_bound=identity_bound, vol_root=vol_root, det_cov=det
    )


def isotropic_transform(fc: FacetComplex) -> tuple[np.ndarray, PointCloud]:
    """Linear map T putting the body in isotropic position, plus T(cloud).

    T = c * Cov^{-1/2} with the symmetric inverse square root (rotation
    part fixed to the identity) and c chosen so the image has volume one.
    Rebuilding the pipeline on the returned cloud yields covariance
    L_K^2 * Identity.
    """
    if fc.source is None:
        raise ValueError("complex has no source cloud to transform")
    vol = polytope_volume(fc)
    cov = polytope_covariance(fc)
    eigvals, Q = np.linalg.eigh(cov)
    if np.any(eigvals <= 0.0):
        raise NotSPDError("not SPD: covariance has a non-positive eigenvalue")
    inv_sqrt = (Q * (eigvals**-0.5)[None, :]) @ Q.T
    det_inv_sqrt = float(np.prod(eigvals**-0.5))
    scale = (det_inv_sqrt * vol) ** (-1.0 / fc.n)
    T = scale * inv_sqrt
    return T, fc.source.transformed(T)


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
