"""Exact volume and second moments of the polytope via cone decomposition.

Writing the symmetric polytope K as the union of cones conv(0, F) over its
boundary facets gives

    n |K|            = sum_i d(0, F_i) |F_i|
    integral_K |x|^2 = sum_i d(0, F_i) / (n + 2) * integral_{F_i} |y|^2 dy

and the facet integral has a closed form in the pairwise inner products of
the facet vertices.  The full second-moment matrix of each cone is the
standard simplex formula

    integral_C x x^T dx = |C| / ((n+1)(n+2)) * (sum_k v_k v_k^T + s s^T),

s = sum_k v_k, which reduces to the scalar decomposition on the trace.

The facets of the symmetric body come in antipodal pairs F, -F whose cones
have the same volume, cross sum and second-moment matrix.  One cached pass
per complex runs over blocks of one representative facet per pair
(:meth:`FacetComplex.pairs`, :func:`isohull.hull.facet_blocks`): it gathers
the block's vertex coordinates, computes their cross sums (copied to the
partners) and accumulates the cone second-moment matrix, which is then
doubled.  The volume and the mean square are likewise doubled sums over
representatives.  A complex whose facets do not pair raises
:class:`InvalidComplexError` here.

A Monte Carlo oracle (rejection volume for n <= 5, exact in-polytope
sampling for the moments) provides an independent cross-check of every
exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hull import UNIT_VERTEX_TOL, FacetComplex, InvalidComplexError, facet_blocks
from .sphere_stats import RngStream, ball_volume

__all__ = [
    "simplex_pair_moment",
    "facet_mean_square",
    "facet_mean_square_pullback",
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


def simplex_pair_moment(n: int, same: bool) -> float:
    """Normalized simplex moment (1/|D|) int_D x_{i1} x_{i2} dx.

    Over the standard (n-1)-simplex in barycentric coordinates this equals
    2/(n(n+1)) when i1 = i2 and 1/(n(n+1)) otherwise.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return (2.0 if same else 1.0) / (n * (n + 1))


def _check_unit(vertices: np.ndarray) -> None:
    norms = np.linalg.norm(vertices, axis=-1)
    worst = float(np.abs(norms - 1.0).max())
    if worst > UNIT_VERTEX_TOL:
        raise UnitVertexError(
            f"closed form requires unit vertices (worst deviation {worst:.3e}); "
            "use the covariance path for general vertices"
        )


def facet_mean_square(vertices: np.ndarray) -> float:
    """(1/|F|) int_F |x|^2 for a simplex facet with unit-norm vertices.

    Closed form 2/(n+1) + (1/(n(n+1))) sum_{i1 != i2} <Q_i1, Q_i2>.
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("expected n vertices in R^n")
    _check_unit(V)
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


def _facet_pass(fc: FacetComplex) -> tuple[np.ndarray, np.ndarray]:
    """(per-facet cross sums (F,), cone second-moment sum (n, n)); cached.

    One pass over blocks of representative facets; the partner of each
    representative gets its cross sum, and the second-moment sum counts
    every pair twice.
    """
    if fc._moments is None:
        n = fc.n
        rep, partner = fc.pairs()
        cross = np.empty(fc.facet_count)
        second = np.zeros((n, n))
        w_rep = fc.dists[rep] * fc.volumes[rep] / (n * (n + 1.0) * (n + 2.0))
        for blk in facet_blocks(rep.size, n * n):
            V = fc.vertices[fc.vertex_ids[rep[blk]]]
            s = V.sum(axis=1)
            cross[rep[blk]] = np.einsum("fi,fi->f", s, s) - np.einsum("fki,fki->f", V, V)
            # sum_f w_f (sum_k v v^T + s s^T) as two flat matrix products
            w = w_rep[blk]
            second += V.reshape(-1, n).T @ (V * w[:, None, None]).reshape(-1, n)
            second += s.T @ (s * w[:, None])
        cross[partner] = cross[rep]
        fc._moments = (cross, 2.0 * second)
    return fc._moments


def facet_cross_sums(fc: FacetComplex) -> np.ndarray:
    """Per facet, sum over ordered pairs i != j of <Q_i, Q_j>; shape (F,).

    Read from the cached facet pass: the mean square and the per-trial
    maximum both need it.
    """
    return _facet_pass(fc)[0]


def polytope_volume(fc: FacetComplex) -> float:
    """|K| from the cone decomposition: (1/n) sum_i dist_i * |F_i|.

    Summed over one facet per antipodal pair and doubled.
    """
    rep, _ = fc.pairs()
    vol = 2.0 * float(np.sum(fc.dists[rep] * fc.volumes[rep])) / fc.n
    if vol <= 0.0:
        raise InvalidComplexError(f"non-positive volume {vol}")
    return vol


def polytope_mean_square(fc: FacetComplex) -> float:
    """(1/|K|) int_K |x|^2 dx, exactly, for unit-vertex complexes.

    Sums dist_i/(n+2) * |F_i| * facet_mean_square_i over one facet per
    antipodal pair, doubles it and divides by the volume.  Each facet mean
    square is the closed form 2/(n+1) + cross_i/(n(n+1)), valid only for
    unit vertices; general-vertex complexes must go through
    trace(polytope_covariance) instead.
    """
    _check_unit(fc.vertices)
    n = fc.n
    rep, _ = fc.pairs()
    fms = 2.0 / (n + 1) + facet_cross_sums(fc)[rep] / (n * (n + 1))
    contrib = fc.dists[rep] / (n + 2.0) * fc.volumes[rep] * fms
    return 2.0 * float(contrib.sum()) / polytope_volume(fc)


def polytope_covariance(fc: FacetComplex) -> np.ndarray:
    """(1/|K|) int_K x x^T dx for a symmetric polytope, any vertex norms.

    The sum of the cone second-moment matrices comes from the cached facet
    pass, divided by the volume and symmetrized.  No factorization is done
    here: :func:`isohull.isotropy.isotropy_constant` is the one SPD gate.
    """
    cov = _facet_pass(fc)[1] / polytope_volume(fc)
    return 0.5 * (cov + cov.T)


def _cone_cdf(fc: FacetComplex) -> np.ndarray:
    if fc._cone_cdf is None:
        w = fc.cone_volumes()
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        fc._cone_cdf = cdf
    return fc._cone_cdf


def _sample_batch(fc: FacetComplex, count: int, stream: RngStream) -> np.ndarray:
    """Exact uniform samples from the polytope, shape (count, n).

    Picks a cone with probability proportional to its volume, then places
    a point by flat Dirichlet weights over the n + 1 cone vertices (the
    origin's weight is simply dropped).
    """
    cdf = _cone_cdf(fc)
    idx = np.searchsorted(cdf, stream.uniform(count), side="right")
    idx = np.minimum(idx, len(cdf) - 1)
    e = np.asarray(stream.exponential((count, fc.n + 1)))
    w = e[:, 1:] / e.sum(axis=1, keepdims=True)
    return np.einsum("ck,cki->ci", w, fc.vertices[fc.vertex_ids[idx]])


def sample_in_polytope(fc: FacetComplex, stream: RngStream) -> np.ndarray:
    """One exact uniform sample from the polytope."""
    return _sample_batch(fc, 1, stream)[0]


@dataclass(frozen=True)
class OracleEstimate:
    """Monte Carlo estimates with standard errors.

    ``volume`` and ``volume_se`` are None when rejection sampling is
    disabled (dimension above REJECTION_MAX_DIM or switched off).
    """

    n_samples: int
    mean_square: float
    mean_square_se: float
    covariance: np.ndarray
    covariance_se: np.ndarray
    volume: float | None = None
    volume_se: float | None = None


def mc_moment_oracle(
    fc: FacetComplex,
    n_samples: int,
    stream: RngStream,
    estimate_volume: bool | None = None,
) -> OracleEstimate:
    """Independent Monte Carlo cross-check of the exact moment paths.

    Mean square and covariance come from exact in-polytope samples; volume
    comes from rejection against the circumscribed ball and is only
    available for n <= REJECTION_MAX_DIM (the hit rate collapses beyond
    that).  Sampling is chunked with a per-chunk derived stream, so totals
    do not depend on how chunks would be scheduled.
    """
    n = fc.n
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if estimate_volume is None:
        estimate_volume = n <= REJECTION_MAX_DIM
    elif estimate_volume and n > REJECTION_MAX_DIM:
        raise ValueError(
            f"rejection oracle disabled at this dimension (n={n} > {REJECTION_MAX_DIM})"
        )

    ms_stream = stream.child(1)
    count = 0
    sum_sq = 0.0
    sum_sq2 = 0.0
    cov_sum = np.zeros((n, n))
    cov_sum2 = np.zeros((n, n))
    chunk_index = 0
    while count < n_samples:
        take = min(_ORACLE_CHUNK, n_samples - count)
        pts = _sample_batch(fc, take, ms_stream.child(chunk_index))
        sq = np.einsum("ci,ci->c", pts, pts)
        sum_sq += float(sq.sum())
        sum_sq2 += float(sq @ sq)
        outer = np.einsum("ci,cj->cij", pts, pts)
        cov_sum += outer.sum(axis=0)
        cov_sum2 += (outer * outer).sum(axis=0)
        count += take
        chunk_index += 1

    ms = sum_sq / count
    ms_var = max(sum_sq2 / count - ms * ms, 0.0)
    ms_se = math.sqrt(ms_var / count)
    cov = cov_sum / count
    cov_var = np.maximum(cov_sum2 / count - cov * cov, 0.0)
    cov_se = np.sqrt(cov_var / count)

    volume = volume_se = None
    if estimate_volume:
        vol_stream = stream.child(2)
        r_max = float(np.linalg.norm(fc.vertices, axis=1).max())
        ball = ball_volume(n) * r_max**n
        hits = 0
        done = 0
        chunk_index = 0
        while done < n_samples:
            take = min(_ORACLE_CHUNK, n_samples - done)
            cs = vol_stream.child(chunk_index)
            g = np.asarray(cs.gaussian((take, n)))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            radii = r_max * np.asarray(cs.uniform(take)) ** (1.0 / n)
            pts = g * radii[:, None]
            inside = np.all(
                pts @ fc.normals.T <= fc.dists[None, :] + _MEMBERSHIP_TOL, axis=1
            )
            hits += int(inside.sum())
            done += take
            chunk_index += 1
        p = hits / n_samples
        volume = ball * p
        volume_se = ball * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)

    return OracleEstimate(
        n_samples=n_samples,
        mean_square=ms,
        mean_square_se=ms_se,
        covariance=cov,
        covariance_se=cov_se,
        volume=volume,
        volume_se=volume_se,
    )
