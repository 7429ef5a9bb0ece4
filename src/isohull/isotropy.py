"""Isotropy constant of a centered body from its volume and covariance.

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
(:func:`isohull.moments.polytope_covariance` does not factorize).  The map
to isotropic position and the contained-ball bound, which no trial needs,
are test references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IsotropyReport",
    "isotropy_constant",
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
    A volume that is not finite and positive, or a covariance that is not
    a non-empty square matrix, is a ValueError.  Raises
    :class:`NotSPDError` when the covariance has a non-finite entry, is not
    symmetric, its Cholesky fails or a pivot is not above PIVOT_TOL.
    """
    if not 0.0 < volume < math.inf:
        raise ValueError(f"volume must be finite and positive, got {volume}")
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
        raise ValueError(f"covariance must be a square matrix, got shape {cov.shape}")
    n = cov.shape[0]
    if not (np.all(np.isfinite(cov)) and float(np.abs(cov - cov.T).max()) <= SYMMETRY_TOL):
        raise NotSPDError("not SPD: matrix has a non-finite entry or is not symmetric")
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"not SPD: {exc}") from exc
    pivots = np.diag(L) ** 2
    if not np.all(pivots > PIVOT_TOL):
        raise NotSPDError(f"not SPD: pivot {pivots.min():.3e} at or below {PIVOT_TOL}")
    det = float(np.prod(np.diag(L))) ** 2
    vol_root = volume ** (1.0 / n)
    l_k = det ** (0.5 / n) / volume ** (1.0 / n)
    identity_bound = math.sqrt(float(np.trace(cov)) / (n * volume ** (2.0 / n)))
    return IsotropyReport(l_k=l_k, identity_bound=identity_bound, vol_root=vol_root, det_cov=det)
