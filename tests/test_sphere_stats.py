from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, stats

from isohull.sphere_stats import (
    ConfigError,
    RngStream,
    bernstein_bound,
    cap_tail_prob,
    derive_seed,
    psi2_norm_estimate,
    sample_symmetric_cloud,
    sphere_abs_moment,
    sphere_points,
)
from conftest import cross_polytope_complex, implied_facets, random_complex
from oracles import GAUSSIAN_4SIGMA_P, double_loop_cross_inner


class TestDeriveSeed:
    def test_deterministic_and_64bit(self):
        for s in (0, 1, 42, 2**63, 2**64 - 1):
            a = derive_seed(s, [3, 5, 7])
            b = derive_seed(s, [3, 5, 7])
            assert a == b
            assert 0 <= a < 2**64

    def test_empty_labels_is_avalanche(self):
        assert derive_seed(123) == derive_seed(123, [])
        assert derive_seed(123) != 123

    def test_label_collision_scan(self):
        # distinct single labels must never collide over 10^4 masters
        for s in range(10_000):
            assert derive_seed(s, [1]) != derive_seed(s, [2])

    def test_order_sensitivity_scan(self):
        for s in range(0, 10_000, 7):
            assert derive_seed(s, [1, 2]) != derive_seed(s, [2, 1])

    def test_nested_matches_child(self):
        st = RngStream(99, (4,)).child(5)
        assert st.uniform() == RngStream(99, (4, 5)).uniform()


class TestRngStream:
    def test_same_path_same_sequence(self):
        a = RngStream(7, (1, 2)).uniform(1000)
        b = RngStream(7, (1, 2)).uniform(1000)
        assert np.array_equal(a, b)

    def test_distinct_paths_uncorrelated(self):
        n = 1_000_000
        a = np.asarray(RngStream(7, (1,)).uniform(n))
        b = np.asarray(RngStream(7, (2,)).uniform(n))
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) * math.sqrt(n) < 4.0

    def test_gaussian_moments(self):
        g = np.asarray(RngStream(11).gaussian(200_000))
        assert abs(g.mean()) < 4.0 / math.sqrt(len(g))
        assert abs(g.var() - 1.0) < 4.0 * math.sqrt(2.0 / len(g))

    def test_gaussian_odd_shapes(self):
        g = RngStream(11).gaussian((3, 5))
        assert np.asarray(g).shape == (3, 5)

    def test_exponential_mean(self):
        e = np.asarray(RngStream(13).exponential(200_000))
        assert abs(e.mean() - 1.0) < 4.0 / math.sqrt(len(e))


class TestSampleUnitVector:
    """The rows of sphere_points, the one sphere sampler, as clouds draw them."""

    def test_zero_row_is_redrawn_from_the_same_stream(self):
        draws = [np.array([[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]]), np.array([[-5.0, 12.0]])]
        calls = []

        class StubStream:
            def gaussian(self, size):
                calls.append(size)
                return draws[len(calls) - 1]

        pts = sphere_points(2, 3, StubStream())
        assert calls == [(3, 2), (1, 2)]
        # unit rows, the zero row replaced by the second draw
        assert np.array_equal(pts, [[0.6, 0.8], [-5.0 / 13.0, 12.0 / 13.0], [0.0, -1.0]])

    def test_unit_norm(self):
        for n in (2, 5, 17):
            norms = np.linalg.norm(sample_symmetric_cloud(n, 3 * n, 21), axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-12

    def test_second_moment_matches_closed_form(self):
        # E <v, theta>^2 = 1/n; the standard error uses the exact fourth moment
        n, draws = 5, 100_000
        g = sample_symmetric_cloud(n, draws, 22)
        x2 = g[:, 0] ** 2
        var = sphere_abs_moment(n, 4) - (1.0 / n) ** 2
        se = math.sqrt(var / draws)
        assert abs(x2.mean() - 1.0 / n) < 4.0 * se

    def test_cap_frequency_n3(self):
        # one-sided cap on S^2 has measure (1 - alpha) / 2
        draws = 100_000
        g = sample_symmetric_cloud(3, draws, 23)
        for alpha in (0.2, 0.5):
            p = (1.0 - alpha) / 2.0
            freq = float(np.mean(g[:, 0] > alpha))
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) < 4.0 * se

    def test_rotation_invariance_ks(self):
        draws, n = 100_000, 4
        g = sample_symmetric_cloud(n, draws, 24)
        rot, _ = np.linalg.qr(np.asarray(RngStream(25).gaussian((n, n))))
        theta = np.zeros(n)
        theta[0] = 1.0
        plain = g @ theta
        rotated = (g @ rot.T) @ theta
        res = stats.ks_2samp(plain, rotated)
        assert res.pvalue > GAUSSIAN_4SIGMA_P


class TestSymmetricCloud:
    def test_deterministic(self):
        a = sample_symmetric_cloud(3, 10, 42)
        assert a.shape == (10, 3)
        assert np.array_equal(a, sample_symmetric_cloud(3, 10, 42))

    def test_rejects_too_few_points(self):
        with pytest.raises(ConfigError, match="insufficient"):
            sample_symmetric_cloud(3, 2, 1)
        with pytest.raises(ConfigError, match="insufficient"):
            sample_symmetric_cloud(3, 3, 1)
        with pytest.raises(ConfigError, match="m > n >= 2"):
            sample_symmetric_cloud(1, 3, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            sample_symmetric_cloud(3, 6, seed)

    def test_pooled_coordinate_means(self):
        n, m, seeds = 4, 20, 200
        pooled = np.vstack(
            [sample_symmetric_cloud(n, m, s) for s in range(seeds)]
        )
        se = math.sqrt(1.0 / n / pooled.shape[0])
        assert np.abs(pooled.mean(axis=0)).max() < 4.0 * se


class TestSphereAbsMoment:
    def test_q2_is_inverse_dimension(self):
        for n in range(2, 51):
            assert abs(sphere_abs_moment(n, 2) - 1.0 / n) <= 1e-13 / n

    def test_circle_first_moment_quadrature(self):
        # mean of |cos(phi)| over the circle
        oracle, _ = integrate.quad(lambda t: abs(math.cos(t)) / (2 * math.pi), 0, 2 * math.pi)
        assert abs(sphere_abs_moment(2, 1) - oracle) < 1e-12
        assert abs(sphere_abs_moment(2, 1) - 2.0 / math.pi) < 1e-13

    def test_s2_first_moment(self):
        # <u, theta> is uniform on [-1, 1] when n = 3
        assert abs(sphere_abs_moment(3, 1) - 0.5) < 1e-13

    def test_large_arguments_safe(self):
        # q = n = 1000 is around 1e-151 and must survive; at 10^4 the true
        # value sits below the float64 floor and may underflow to zero, but
        # must never overflow or go non-finite
        assert 0.0 < sphere_abs_moment(1000, 1000) < 1.0
        val = sphere_abs_moment(10_000, 10_000)
        assert math.isfinite(val) and 0.0 <= val < 1.0

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_non_finite_order_raises(self, q):
        with pytest.raises(ValueError, match="moment order"):
            sphere_abs_moment(3, q)

    def test_stirling_band_fixture(self, calibration):
        band = calibration["stirling_band"]
        assert band["b2"] / band["b1"] <= 4.0
        recomputed_lo, recomputed_hi = math.inf, -math.inf
        for n in range(band["n_min"], band["n_max"] + 1, 3):
            for q in range(band["q_min"], band["q_max"] + 1, 3):
                r = sphere_abs_moment(n, q) ** (1.0 / q) / math.sqrt(q / (q + n))
                recomputed_lo = min(recomputed_lo, r)
                recomputed_hi = max(recomputed_hi, r)
        assert band["b1"] <= recomputed_lo + 1e-12
        assert recomputed_hi <= band["b2"] + 1e-12


class TestCapTailProb:
    def test_endpoints(self):
        for n in (2, 3, 8, 32):
            assert abs(cap_tail_prob(n, 0.0) - 1.0) <= 1e-9
            assert cap_tail_prob(n, 1.0) == 0.0

    def test_n3_closed_form(self):
        for alpha in (0.1, 0.25, 0.5):
            assert abs(cap_tail_prob(3, alpha) - (1.0 - alpha)) <= 1e-10

    def test_n2_arc_length(self):
        for alpha in (0.1, 0.3, 0.7, 0.95):
            oracle = 1.0 - 2.0 / math.pi * math.asin(alpha)
            assert abs(cap_tail_prob(2, alpha) - oracle) <= 1e-10

    @pytest.mark.parametrize("n", [8, 32, 64, 100])
    def test_matches_quadrature(self, n):
        # 2 (n-1) w_{n-1} / (n w_n) * int_alpha^1 (1 - x^2)^{(n-3)/2} dx,
        # with w_k = pi^{k/2} / Gamma(k/2 + 1) the unit-ball volume
        log_w = lambda k: 0.5 * k * math.log(math.pi) - math.lgamma(0.5 * k + 1.0)
        ratio = 2.0 * (n - 1) / n * math.exp(log_w(n - 1) - log_w(n))
        for i in range(100):
            alpha = i / 100
            integral, _ = integrate.quad(
                lambda x: (1.0 - x * x) ** (0.5 * (n - 3)),
                alpha,
                1.0,
                epsabs=1e-15,
                epsrel=1e-13,
                limit=200,
            )
            assert abs(cap_tail_prob(n, alpha) - ratio * integral) <= 1e-12, alpha

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cap_tail_prob(3, -0.1)
        with pytest.raises(ValueError):
            cap_tail_prob(3, 1.1)

    def test_strictly_decreasing(self):
        for n in (2, 5, 16):
            grid = np.linspace(0.0, 1.0, 41)
            vals = [cap_tail_prob(n, a) for a in grid]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_matches_empirical_frequency(self):
        draws = 100_000
        for n in (3, 6):
            g = sphere_points(n, draws, RngStream(31, (n,)))
            for alpha in (0.2, 0.4):
                p = cap_tail_prob(n, alpha)
                freq = float(np.mean(np.abs(g[:, 0]) > alpha))
                se = math.sqrt(p * (1 - p) / draws)
                assert abs(freq - p) < 4.0 * se

    def test_small_cap_linear_bound_fixture(self, calibration):
        c = calibration["small_cap"]["c"]
        for n in (2, 3, 8, 24, 64):
            for frac in (0.05, 0.3, 0.8, 1.0):
                eps = frac / math.sqrt(n)
                assert 1.0 - cap_tail_prob(n, eps) <= c * math.sqrt(n) * eps + 1e-12


class TestPsi2Norm:
    def test_zero_sample(self):
        assert psi2_norm_estimate(np.zeros(100)) == 0.0

    def test_constant_sample(self):
        # exp(1 / lam^2) = 2 at lam = 1 / sqrt(ln 2)
        expected = 1.0 / math.sqrt(math.log(2.0))
        got = psi2_norm_estimate(np.ones(50))
        assert abs(got - expected) <= 2e-6 * expected

    def test_positive_homogeneity(self):
        vals = np.asarray(RngStream(41).gaussian(2000))
        base = psi2_norm_estimate(vals)
        for t in (0.25, 3.75):
            scaled = psi2_norm_estimate(t * vals)
            assert abs(scaled - t * base) <= 1e-6 * abs(t * base)

    def test_certified_at_returned_lambda(self):
        vals = np.asarray(RngStream(42).gaussian(5000))
        lam = psi2_norm_estimate(vals)
        assert float(np.exp((vals / lam) ** 2).mean()) <= 2.0 + 1e-12

    @pytest.mark.parametrize("k", [600, -600])
    def test_power_of_two_scales_are_exact(self, k):
        # v^2 would overflow at 2^600 and underflow at 2^-600; the search
        # runs at unit scale, and powers of two scale it exactly
        base = np.array([0.5, 1.0, 2.0])
        assert psi2_norm_estimate(math.ldexp(1.0, k) * base) == math.ldexp(
            psi2_norm_estimate(base), k
        )

    @pytest.mark.parametrize("t", [1e200, 1e-200])
    def test_extreme_scales(self, t):
        base = np.array([0.5, 1.0, 2.0])
        assert psi2_norm_estimate(t * base) == pytest.approx(t * psi2_norm_estimate(base), rel=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_raises(self, bad):
        # no lambda satisfies a sample holding one non-finite value, so the
        # bracket would double forever
        with pytest.raises(ValueError, match="non-finite"):
            psi2_norm_estimate(np.array([0.5, bad, 1.0]))

    def test_fitted_bound_fixture(self, calibration):
        from isohull.calibration import psi2_sphere_estimates

        a_hat = calibration["psi2"]["a_hat"]
        estimates = psi2_sphere_estimates()
        for n, est in estimates.items():
            assert est <= a_hat
        stored = {int(k): v for k, v in calibration["psi2"]["estimates"].items()}
        for n, est in estimates.items():
            assert est == pytest.approx(stored[n], rel=1e-12)


class TestBernsteinBound:
    def test_zero_eps(self):
        assert bernstein_bound(10, 0.0, 1.0) == 2.0

    def test_unit_exponent(self):
        # eps^2 N = 8 A^2 puts the exponent at -1
        assert abs(bernstein_bound(8, 1.0, 1.0) - 2.0 / math.e) <= 1e-15

    def test_reference_point(self):
        assert abs(bernstein_bound(100, 0.5, 1.0) - 2.0 * math.exp(-25.0 / 8.0)) <= 1e-15
        assert bernstein_bound(100, 0.5, 1.0) == pytest.approx(0.08787, abs=5e-6)

    @pytest.mark.parametrize(
        "eps, A, name",
        [
            (math.nan, 1.0, "eps"),
            (math.inf, 1.0, "eps"),
            (-0.1, 1.0, "eps"),
            (0.1, math.nan, "A"),
            (0.1, math.inf, "A"),
            (0.1, 0.0, "A"),
            (0.1, -1.0, "A"),
        ],
    )
    def test_invalid_argument_raises(self, eps, A, name):
        # a NaN used to come back as the bound, A = 0 as ZeroDivisionError,
        # and a negative eps or A as the bound at its absolute value
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bernstein_bound(10, eps, A)

    def test_empirical_tails_below_bound(self, calibration):
        from isohull.calibration import bernstein_tail_table

        a_hat = calibration["psi2"]["a_hat"]
        rows = bernstein_tail_table(a_hat)
        assert all(row["tail"] <= row["bound"] for row in rows)
        # the pinned stream reproduces the fixture's rows exactly
        assert rows == calibration["bernstein"]["rows"]


class TestSumCrossInner:
    """The facet cross sums of symmetric_hull's representative pass."""

    def test_orthogonal_pair(self):
        # a cross-polytope facet's vertices are pairwise orthogonal
        for n in range(2, 7):
            assert np.all(cross_polytope_complex(n).cross_sums == 0.0)

    def test_matches_double_loop(self):
        for n, m, seed in ((2, 7, 51), (4, 10, 52), (6, 14, 53)):
            fc = random_complex(n, m, seed)
            full = implied_facets(fc)
            for f in range(fc.facet_count):
                expected = double_loop_cross_inner(fc.vertices[full["ids"][f]])
                assert abs(full["cross_sums"][f] - expected) <= 1e-12
