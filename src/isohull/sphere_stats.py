"""Uniform sampling on the unit sphere and its closed-form statistics.

Everything random in this package flows through :class:`RngStream`, a
labelled wrapper around a pinned 64-bit generator.  Streams are addressed
by a master seed plus a path of integer labels, so independent subsystems
(cloud sampling, Monte Carlo oracles, parallel chunks) can derive
non-overlapping streams from one seed and reproduce them exactly.
Uniform sphere points come from one sampler, :func:`sphere_points`; the
trial clouds, the calibration draws and the Monte Carlo oracle all call it.

The deterministic half of the module evaluates sphere statistics in closed
form: absolute moments of a fixed linear functional, two-sided cap
probabilities, empirical sub-Gaussian (psi_2) norms, and the exponential
tail bound for sums of bounded-psi_2 variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "derive_seed",
    "RngStream",
    "PointCloud",
    "sphere_points",
    "sample_symmetric_cloud",
    "sphere_abs_moment",
    "cap_tail_prob",
    "psi2_norm_estimate",
    "bernstein_bound",
    "ConfigError",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

UNIT_NORM_TOL = 1e-12


class ConfigError(ValueError):
    """An input outside the range its first user accepts (cell, seed, count, config)."""


def _mix64(z: int) -> int:
    # SplitMix64 finalizer: full-avalanche bijection on 64-bit integers.
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, labels: Iterable[int] = ()) -> int:
    """Derive a 64-bit seed from a master seed and an ordered label path.

    Pure function: the master is avalanched, then each label is hashed and
    folded in sequence, so distinct labels and distinct label orders give
    distinct seeds (each fold is a bijection of the running state).
    """
    state = _mix64(int(master))
    for label in labels:
        state = _mix64(state ^ _mix64((int(label) + _GOLDEN) & _MASK64))
    return state


@dataclass(eq=False)
class RngStream:
    """A labelled, reproducible random stream.

    The underlying generator is a pinned PCG64 (256 bits of internal
    state), seeded from ``derive_seed(master_seed, path)``.  Identical
    ``(master_seed, path)`` pairs always replay the same sequence within a
    build; distinct paths give statistically independent streams.

    Gaussian variates use the Box-Muller transform applied to the stream's
    uniforms rather than the generator's native normal method, keeping the
    draw recipe pinned.
    """

    master_seed: int
    path: tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.path = tuple(int(p) for p in self.path)
        self.master_seed = int(self.master_seed) & _MASK64
        self._gen = np.random.Generator(
            np.random.PCG64(derive_seed(self.master_seed, self.path))
        )

    def child(self, label: int) -> "RngStream":
        """A fresh stream one label deeper; does not consume this stream."""
        return RngStream(self.master_seed, self.path + (int(label),))

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform float64 draws in [0, 1)."""
        return self._gen.random(size)

    def gaussian(self, size: int | Sequence[int]) -> np.ndarray:
        """Standard normal draws via Box-Muller on stream uniforms."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        total = int(np.prod(shape)) if shape else 1
        pairs = (total + 1) // 2
        # 1 - U keeps the log argument in (0, 1]; each call consumes 2*pairs
        # uniforms regardless of parity.
        u1 = 1.0 - self._gen.random(pairs)
        u2 = self._gen.random(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        ang = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(ang)
        z[1::2] = r * np.sin(ang)
        return z[:total].reshape(shape)

    def exponential(self, size=None) -> np.ndarray | float:
        """Standard exponential draws (inverse CDF on stream uniforms)."""
        u = self._gen.random(size)
        return -np.log1p(-u)


@dataclass(eq=False)
class PointCloud:
    """An ordered list of points in R^n together with provenance.

    ``points`` has shape (m, n).  The symmetrized list of 2m points is
    materialized lazily: index i in [0, m) is the i-th point, index i + m
    is its antipode.  Clouds built by :func:`sample_symmetric_cloud` have
    unit-norm rows; other clouds need not.
    """

    points: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (m, n)")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def symmetrized(self) -> np.ndarray:
        """The 2m symmetrized points; row i + m is the antipode of row i."""
        return np.vstack([self.points, -self.points])


# Label for the cloud-sampling stream under a trial seed; Monte Carlo
# oracles use disjoint labels (see moments / harness).
CLOUD_STREAM_LABEL = 0


def sphere_points(n: int, count: int, stream: RngStream) -> np.ndarray:
    """``count`` uniform points on S^{n-1} as rows: normalized Gaussian rows,
    a row of norm <= UNIT_NORM_TOL redrawn from the same stream."""
    g = stream.gaussian((count, n))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms <= UNIT_NORM_TOL):
        bad = norms <= UNIT_NORM_TOL
        g[bad] = stream.gaussian((int(bad.sum()), n))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def sample_symmetric_cloud(n: int, m: int, seed: int) -> PointCloud:
    """m independent uniform sphere points, deterministic in (n, m, seed).

    The symmetric hull of fewer than n + 1 generators cannot be controlled
    by the random-polytope machinery, so m > n >= 2 is required, and the
    seed is a 64-bit unsigned integer; anything else is a ConfigError.
    """
    if n < 2 or m <= n:
        raise ConfigError(f"insufficient points or dimension: need m > n >= 2, got n={n}, m={m}")
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")
    points = sphere_points(n, m, RngStream(seed, (CLOUD_STREAM_LABEL,)))
    return PointCloud(points, seed=seed)


def ball_volume(n: int) -> float:
    """Volume of the unit euclidean ball in R^n."""
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


def sphere_abs_moment(n: int, q: float) -> float:
    """E |<u, theta>|^q for u uniform on S^{n-1} and any fixed unit theta.

    Evaluates 2 Gamma((1+q)/2) Gamma(1+n/2) / (sqrt(pi) n Gamma((n+q)/2))
    in log space; independent of theta by rotational symmetry.  At q = 2
    this reduces to 1/n.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if q < 1:
        raise ValueError(f"moment order must be >= 1, got {q}")
    log_val = (
        math.log(2.0)
        + math.lgamma(0.5 * (1.0 + q))
        + math.lgamma(1.0 + 0.5 * n)
        - 0.5 * math.log(math.pi)
        - math.log(n)
        - math.lgamma(0.5 * (n + q))
    )
    return math.exp(log_val)


def cap_tail_prob(n: int, alpha: float) -> float:
    """sigma{u in S^{n-1} : |<u, theta>| > alpha} for any fixed unit theta.

    Two-sided cap measure in closed form: <u, theta>^2 is
    Beta(1/2, (n-1)/2)-distributed, so the measure is the regularized
    incomplete beta function I_{1 - alpha^2}((n-1)/2, 1/2).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return float(special.betainc(0.5 * (n - 1), 0.5, 1.0 - alpha * alpha))


def psi2_norm_estimate(values: Sequence[float] | np.ndarray) -> float:
    """Empirical psi_2 (sub-Gaussian) norm of a sample.

    Returns the smallest lambda > 0 such that mean(exp(v^2 / lambda^2)) <= 2,
    located by bisection to relative tolerance 1e-6 after geometric bracket
    growth.  The all-zero sample has norm 0; an empty or non-finite sample
    raises ValueError.
    """
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    if v.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(v)):
        raise ValueError("sample holds a non-finite value")
    vmax = float(v.max())
    if vmax == 0.0:
        return 0.0
    sq = v * v

    def satisfied(lam: float) -> bool:
        expo = sq / (lam * lam)
        if float(expo.max()) > 700.0:
            return False  # a single term already exceeds any finite budget
        return float(np.exp(expo).mean()) <= 2.0

    hi = vmax
    while not satisfied(hi):
        hi *= 2.0
    lo = 0.5 * hi
    while satisfied(lo):
        hi = lo
        lo *= 0.5
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bernstein_bound(N: int, eps: float, A: float) -> float:
    """Tail bound 2 exp(-eps^2 N / (8 A^2)) for |sum of N psi_2 variables| > eps N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return 2.0 * math.exp(-(eps * eps) * N / (8.0 * A * A))
