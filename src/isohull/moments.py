"""Exact volume and second moments of the polytope via cone decomposition.

Writing the symmetric polytope K as the union of cones C_i = conv(0, F_i)
over its boundary facets, with |C_i| = |det V_i| / n! for the facet's
vertices V_i, gives |K| = sum_i |C_i|.  The second-moment matrix of each
cone is the standard simplex formula

    integral_C x x^T dx = |C| / ((n+1)(n+2)) * (sum_k v_k v_k^T + s s^T),

s = sum_k v_k, whose trace for unit vertices is
|C| (2n + cross) / ((n+1)(n+2)), cross = |s|^2 - n the facet's cross sum.

The facets of the symmetric body come in antipodal pairs F, -F whose cones
have the same volume, cross sum and second-moment matrix, and a
:class:`FacetComplex` holds one row per pair.  The facet pass of
:func:`isohull.hull.symmetric_hull` stores the cone volumes, the cross sums
and the cone second-moment sum on the complex, so |K| = 2 sum cones and the
mean square is a sum over every row, doubled.  Whether a facet is too thin
to count is :func:`isohull.hull.validate_complex`'s verdict alone.

A Monte Carlo oracle (rejection volume for n <= 5, exact in-polytope
samples from :func:`sample_in_polytope` for the moments) provides an
independent cross-check of every exact path.  The per-facet closed form and
its term-by-term pullback through the simplex moments, which pin each
other, live with the other test references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hull import FacetComplex, InvalidComplexError, facet_blocks
from .sphere_stats import RngStream, ball_volume, sphere_points

__all__ = [
    "facet_cross_sums",
    "polytope_volume",
    "polytope_mean_square",
    "polytope_covariance",
    "sample_in_polytope",
    "mc_moment_oracle",
    "OracleEstimate",
    "UnitVertexError",
    "REJECTION_MAX_DIM",
]

REJECTION_MAX_DIM = 5

_MEMBERSHIP_TOL = 1e-9
_ORACLE_CHUNK = 1 << 14


class UnitVertexError(ValueError):
    """A closed form requiring unit-norm vertices was fed general vertices."""


def facet_cross_sums(fc: FacetComplex) -> np.ndarray:
    """Per row, sum over ordered pairs i != j of <Q_i, Q_j>; shape (F/2,).

    A row's mirror has the same cross sum.  Stored by
    :func:`isohull.hull.symmetric_hull`: the mean square and the per-trial
    maximum both need it.
    """
    return fc.cross_sums


def polytope_volume(fc: FacetComplex) -> float:
    """|K| from the cone decomposition: 2 sum cones, one cone per antipodal pair."""
    vol = 2.0 * float(np.sum(fc.cones))
    if vol <= 0.0:
        raise InvalidComplexError(f"non-positive volume {vol}")
    return vol


def polytope_mean_square(fc: FacetComplex) -> float:
    """(1/|K|) int_K |x|^2 dx, exactly, for unit-vertex complexes.

    Sums cone_i (2n + cross_i) / ((n+1)(n+2)), the trace of each cone's
    second moment, over one facet per antipodal pair, doubles it and
    divides by the volume.  The closed form holds only for unit vertices
    (:meth:`FacetComplex.is_unit`); general-vertex complexes must go
    through trace(polytope_covariance) instead.
    """
    if not fc.is_unit():
        raise UnitVertexError(
            "closed form requires unit vertices; use the covariance path for general vertices"
        )
    n = fc.n
    contrib = fc.cones * (2.0 * n + fc.cross_sums) / ((n + 1.0) * (n + 2.0))
    return 2.0 * float(contrib.sum()) / polytope_volume(fc)


def polytope_covariance(fc: FacetComplex) -> np.ndarray:
    """(1/|K|) int_K x x^T dx for a symmetric polytope, any vertex norms.

    The stored sum of the cone second-moment matrices is divided by the
    volume and averaged with its transpose.  No factorization is done here:
    :func:`isohull.isotropy.isotropy_constant` is the one SPD gate.
    """
    cov = fc.cone_second / polytope_volume(fc)
    return 0.5 * (cov + cov.T)


def sample_in_polytope(fc: FacetComplex, count: int, stream: RngStream) -> np.ndarray:
    """Exact uniform samples from the polytope, shape (count, n).

    Picks one of the 2P cones, the rows' and then their mirrors', with
    probability proportional to its volume, then places a point by flat
    Dirichlet weights over the n + 1 cone vertices (the origin's weight is
    simply dropped).  A point in a mirror's cone is the negation of one in
    its row's.
    """
    cones = fc.cones
    cdf = np.cumsum(np.concatenate([cones, cones]))
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, stream.uniform(count), side="right")
    idx = np.minimum(idx, len(cdf) - 1)
    e = np.asarray(stream.exponential((count, fc.n + 1)))
    w = e[:, 1:] / e.sum(axis=1, keepdims=True)
    pts = np.einsum("ck,cki->ci", w, fc.vertices[fc.vertex_ids[idx % cones.size]])
    pts[idx >= cones.size] *= -1.0
    return pts


@dataclass(frozen=True)
class OracleEstimate:
    """Monte Carlo estimates with standard errors.

    ``volume`` and ``volume_se`` are None above REJECTION_MAX_DIM, where
    rejection sampling is not run.
    """

    mean_square: float
    mean_square_se: float
    covariance: np.ndarray
    covariance_se: np.ndarray
    volume: float | None = None
    volume_se: float | None = None


def mc_moment_oracle(fc: FacetComplex, n_samples: int, stream: RngStream) -> OracleEstimate:
    """Independent Monte Carlo cross-check of the exact moment paths.

    Mean square and covariance come from exact in-polytope samples; volume
    comes from rejection against the circumscribed ball and is only
    estimated for n <= REJECTION_MAX_DIM (the hit rate collapses beyond
    that).  Sampling is chunked with per-chunk derived streams (child 1 for
    the moments, child 2 for the volume), so totals do not depend on how
    chunks would be scheduled.
    """
    n = fc.n
    if n_samples < 1:
        raise ValueError("need at least one sample")
    estimate_volume = n <= REJECTION_MAX_DIM

    ms_stream = stream.child(1)
    vol_stream = stream.child(2)
    r_max = float(np.linalg.norm(fc.points, axis=1).max())
    sum_sq = 0.0
    sum_sq2 = 0.0
    cov_sum = np.zeros((n, n))
    cov_sum2 = np.zeros((n, n))
    hits = 0
    for chunk_index, lo in enumerate(range(0, n_samples, _ORACLE_CHUNK)):
        take = min(_ORACLE_CHUNK, n_samples - lo)
        pts = sample_in_polytope(fc, take, ms_stream.child(chunk_index))
        sq = np.einsum("ci,ci->c", pts, pts)
        sum_sq += float(sq.sum())
        sum_sq2 += float(sq @ sq)
        outer = np.einsum("ci,cj->cij", pts, pts)
        cov_sum += outer.sum(axis=0)
        cov_sum2 += (outer * outer).sum(axis=0)
        if estimate_volume:
            cs = vol_stream.child(chunk_index)
            dirs = sphere_points(n, take, cs)
            radii = r_max * np.asarray(cs.uniform(take)) ** (1.0 / n)
            pts = dirs * radii[:, None]
            # |<x, n_F>| <= d_F tests x against F and its mirror -F; blocks
            # of samples keep the (samples, P) products to one block's worth
            bound = fc.dists + _MEMBERSHIP_TOL
            for rows in facet_blocks(take, bound.size):
                G = pts[rows] @ fc.normals.T
                hits += int(np.count_nonzero((np.abs(G, out=G) <= bound).all(axis=1)))

    ms = sum_sq / n_samples
    ms_se = math.sqrt(max(sum_sq2 / n_samples - ms * ms, 0.0) / n_samples)
    cov = cov_sum / n_samples
    cov_se = np.sqrt(np.maximum(cov_sum2 / n_samples - cov * cov, 0.0) / n_samples)

    volume = volume_se = None
    if estimate_volume:
        ball = ball_volume(n) * r_max**n
        p = hits / n_samples
        volume = ball * p
        volume_se = ball * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)

    return OracleEstimate(
        mean_square=ms,
        mean_square_se=ms_se,
        covariance=cov,
        covariance_se=cov_se,
        volume=volume,
        volume_se=volume_se,
    )
