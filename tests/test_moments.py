from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from isohull import hull, moments
from isohull.harness import run_trial
from isohull.moments import (
    REJECTION_MAX_DIM,
    UnitVertexError,
    facet_cross_sums,
    mc_moment_oracle,
    polytope_covariance,
    polytope_mean_square,
    polytope_volume,
    sample_in_polytope,
)
from isohull.hull import symmetric_hull, validate_complex
from isohull.sphere_stats import PointCloud, RngStream, sphere_points
from conftest import cross_polytope_complex, implied_facets, random_complex
from oracles import (
    GAUSSIAN_4SIGMA_P,
    facet_mean_square,
    facet_mean_square_pullback,
    segment_mean_square,
    simplex_pair_moment,
)


class TestSimplexPairMoment:
    def test_segment_diagonal(self):
        # int_0^1 t^2 dt on conv(e1, e2)
        assert simplex_pair_moment(2, True) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_segment_off_diagonal(self):
        # int_0^1 t (1 - t) dt
        assert simplex_pair_moment(2, False) == pytest.approx(1.0 / 6.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_general_diagonal(self, n):
        assert simplex_pair_moment(n, True) == 2.0 / (n * (n + 1))


class TestFacetMeanSquare:
    def test_orthonormal_vertices(self):
        for n in (2, 3, 6):
            assert facet_mean_square(np.eye(n)) == pytest.approx(2.0 / (n + 1), abs=1e-14)

    def test_antipodal_segment(self):
        v = np.array([[0.6, 0.8], [-0.6, -0.8]])
        assert facet_mean_square(v) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_angled_segment_against_quadrature(self):
        phi = math.pi / 3.0
        q1 = np.array([1.0, 0.0])
        q2 = np.array([math.cos(phi), math.sin(phi)])
        closed = facet_mean_square(np.vstack([q1, q2]))
        assert closed == pytest.approx(2.0 / 3.0 + math.cos(phi) / 3.0, abs=1e-14)
        assert closed == pytest.approx(segment_mean_square(q1, q2), abs=1e-10)

    def test_rejects_non_unit(self):
        with pytest.raises(UnitVertexError):
            facet_mean_square(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_pullback_route_agrees(self):
        for seed in range(40):
            n = 2 + seed % 5
            V = sphere_points(n, n, RngStream(1000 + seed))
            assert abs(facet_mean_square(V) - facet_mean_square_pullback(V)) <= 1e-12

    def test_cross_sum_rearrangement(self):
        # sum_{i != j} <Q_i, Q_j> = n (n+1) fms - 2n for unit vertices
        for seed in range(10):
            n = 3 + seed % 4
            V = sphere_points(n, n, RngStream(2000 + seed))
            fms = facet_mean_square(V)
            s = V.sum(axis=0)
            cross = float(s @ s) - n
            assert abs(cross - (n * (n + 1) * fms - 2 * n)) <= 1e-10


class TestPolytopeVolume:
    def test_square(self, square):
        assert polytope_volume(square) == pytest.approx(2.0, abs=1e-14)

    def test_octahedron(self, octahedron):
        assert polytope_volume(octahedron) == pytest.approx(4.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cross_polytope_closed_form(self, n):
        vol = polytope_volume(cross_polytope_complex(n))
        assert abs(vol - 2.0**n / math.factorial(n)) <= 1e-12

    def test_agrees_with_simplex_determinants(self):
        # independent decomposition: |K| = sum |det[v_1 ... v_n]| / n!
        fc = random_complex(4, 10, 31)
        dets = np.abs(np.linalg.det(fc.vertices[implied_facets(fc)["ids"]]))
        alt = float(dets.sum()) / math.factorial(fc.n)
        assert polytope_volume(fc) == pytest.approx(alt, rel=1e-10)


class TestPolytopeMeanSquare:
    def test_square(self, square):
        assert polytope_mean_square(square) == pytest.approx(1.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cross_polytope_closed_form(self, n):
        ms = polytope_mean_square(cross_polytope_complex(n))
        assert abs(ms - 2.0 * n / ((n + 1) * (n + 2))) <= 1e-12

    def test_unit_range(self):
        for seed in range(5):
            fc = random_complex(3 + seed, 3 * (3 + seed), 400 + seed)
            assert 0.0 < polytope_mean_square(fc) <= 1.0

    def test_rejects_general_vertices(self):
        fc = random_complex(3, 8, 7)
        scaled = symmetric_hull(PointCloud(1.7 * fc.vertices[: fc.num_points]))
        with pytest.raises(UnitVertexError):
            polytope_mean_square(scaled)

    def test_matches_oracle(self):
        fc = random_complex(4, 12, 55)
        est = mc_moment_oracle(fc, 100_000, RngStream(56))
        exact = polytope_mean_square(fc)
        assert abs(exact - est.mean_square) < 4.0 * est.mean_square_se


class TestPolytopeCovariance:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_cross_polytope_isotropic(self, n):
        cov = polytope_covariance(cross_polytope_complex(n))
        expected = 2.0 / ((n + 1) * (n + 2)) * np.eye(n)
        assert np.abs(cov - expected).max() <= 1e-12

    def test_trace_identity(self):
        for seed in range(6):
            fc = random_complex(2 + seed, 8 + 2 * seed, 600 + seed)
            cov = polytope_covariance(fc)
            ms = polytope_mean_square(fc)
            assert abs(np.trace(cov) - ms) <= 1e-10 * ms

    def test_rotation_equivariance(self):
        fc = random_complex(3, 9, 77)
        rot, _ = np.linalg.qr(np.asarray(RngStream(78).gaussian((3, 3))))
        rotated = symmetric_hull(PointCloud(fc.vertices[: fc.num_points] @ rot.T))
        cov = polytope_covariance(fc)
        cov_rot = polytope_covariance(rotated)
        assert np.abs(cov_rot - rot @ cov @ rot.T).max() <= 1e-10

    def test_scaling_laws(self):
        fc = random_complex(3, 9, 88)
        vol = polytope_volume(fc)
        cov = polytope_covariance(fc)
        for t in (0.5, 2.0):
            scaled = symmetric_hull(PointCloud(t * fc.vertices[: fc.num_points]))
            assert polytope_volume(scaled) == pytest.approx(t**fc.n * vol, rel=1e-10)
            assert np.abs(polytope_covariance(scaled) - t**2 * cov).max() <= 1e-10 * t**2


class TestSampling:
    def test_membership(self, octahedron):
        pts = sample_in_polytope(octahedron, 50_000, RngStream(91))
        full = implied_facets(octahedron)
        slack = pts @ full["normals"].T - full["dists"][None, :]
        assert slack.max() <= 1e-9
        one = sample_in_polytope(octahedron, 1, RngStream(92))
        assert one.shape == (1, 3) and np.abs(one).sum() <= 1.0 + 1e-9

    def test_mean_vanishes(self, octahedron):
        pts = sample_in_polytope(octahedron, 100_000, RngStream(93))
        # per-coordinate variance is mean_square / n = 0.1
        se = math.sqrt(0.1 / len(pts))
        assert np.abs(pts.mean(axis=0)).max() < 4.0 * se

    def test_octant_uniformity(self, octahedron):
        pts = sample_in_polytope(octahedron, 100_000, RngStream(94))
        octant = (pts[:, 0] > 0) * 4 + (pts[:, 1] > 0) * 2 + (pts[:, 2] > 0)
        counts = np.bincount(octant, minlength=8)
        expected = len(pts) / 8.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, df=7) > GAUSSIAN_4SIGMA_P


class TestOracle:
    def test_square_volume(self, square):
        est = mc_moment_oracle(square, 1_000_000, RngStream(95))
        assert est.volume is not None
        assert abs(est.volume - 2.0) < 4.0 * est.volume_se

    def test_octahedron_mean_square(self, octahedron):
        est = mc_moment_oracle(octahedron, 1_000_000, RngStream(96))
        assert abs(est.mean_square - 0.3) < 4.0 * est.mean_square_se
        assert abs(est.volume - 4.0 / 3.0) < 4.0 * est.volume_se

    def test_se_scaling(self, octahedron):
        ses = [
            mc_moment_oracle(octahedron, N, RngStream(97)).mean_square_se
            for N in (10_000, 100_000, 1_000_000)
        ]
        for a, b in zip(ses, ses[1:]):
            assert a / b == pytest.approx(math.sqrt(10.0), rel=0.2)

    def test_rejection_disabled_beyond_cutoff(self):
        fc = random_complex(REJECTION_MAX_DIM + 1, 3 * (REJECTION_MAX_DIM + 1), 98)
        est = mc_moment_oracle(fc, 1000, RngStream(99))
        assert est.volume is None

    def test_volume_check_holds_one_block_of_products(self):
        # the rejection test runs over blocks of samples; unblocked, the
        # (samples, P) products and their absolute values, 16384 samples
        # against P = 754 rows here, held about 200 MB
        fc = random_complex(5, 40, 101)
        tracemalloc.start()
        try:
            est = mc_moment_oracle(fc, 1 << 14, RngStream(102))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.volume is not None
        assert peak < 16 << 20

    def test_blocked_volume_equals_the_unblocked_one(self, monkeypatch):
        fc = random_complex(5, 40, 103)
        blocked = mc_moment_oracle(fc, 20_000, RngStream(104))
        monkeypatch.setattr(moments, "facet_blocks", lambda count, width: iter([slice(0, count)]))
        whole = mc_moment_oracle(fc, 20_000, RngStream(104))
        assert 0.0 < blocked.volume == whole.volume
        assert blocked.volume_se == whole.volume_se
        assert blocked.mean_square == whole.mean_square

    def test_deterministic(self, octahedron):
        a = mc_moment_oracle(octahedron, 20_000, RngStream(100))
        b = mc_moment_oracle(octahedron, 20_000, RngStream(100))
        assert a.mean_square == b.mean_square
        assert np.array_equal(a.covariance, b.covariance)
        assert a.volume == b.volume


def gathered_reference(fc) -> dict:
    """Every facet quantity over all F facets of R u -R at once, from one (F, n, n) gather.

    Per-facet arrays come back for the complex's rows, the first F/2 facets.
    """
    n = fc.n
    full = implied_facets(fc)
    dists = full["dists"]
    V = fc.vertices[full["ids"]]
    s = V.sum(axis=1)
    cross = np.einsum("fi,fi->f", s, s) - np.einsum("fki,fki->f", V, V)
    volumes = np.abs(np.linalg.det(V)) / (math.factorial(n - 1) * dists)
    volume = float(np.sum(dists * volumes)) / n
    fms = 2.0 / (n + 1) + cross / (n * (n + 1))
    mean_square = float(np.sum(dists / (n + 2.0) * volumes * fms)) / volume
    w = dists * volumes / n / ((n + 1.0) * (n + 2.0))
    second = V.reshape(-1, n).T @ (V * w[:, None, None]).reshape(-1, n) + s.T @ (s * w[:, None])
    rows = fc.vertex_ids.shape[0]
    return {
        "volumes": volumes[:rows],
        "volume": volume,
        "mean_square": mean_square,
        "covariance": second / volume,
        "cross": cross[:rows],
    }


def block_of(pairs: int, case: str) -> int:
    """Facets per block that put ``pairs`` below, on or off a block multiple."""
    if case == "below":
        return pairs + 1
    if case == "on":
        return next(b for b in range(pairs // 2, 0, -1) if pairs % b == 0)
    return next(b for b in range(pairs // 3 + 1, pairs) if pairs % b)


class TestFacetPass:
    @pytest.mark.parametrize("n, m, seed", [(2, 7, 1), (3, 9, 2), (5, 12, 3), (8, 20, 4)])
    @pytest.mark.parametrize("case", ["below", "on", "off", "default"])
    def test_matches_full_gather(self, n, m, seed, case, monkeypatch):
        pairs = random_complex(n, m, seed).facet_count // 2
        if case != "default":
            monkeypatch.setattr(hull, "_BLOCK_FLOATS", block_of(pairs, case) * n * n)
        fc = random_complex(n, m, seed)
        ref = gathered_reference(fc)
        np.testing.assert_allclose(fc.volumes, ref["volumes"], rtol=1e-12, atol=0)
        assert polytope_volume(fc) == pytest.approx(ref["volume"], rel=1e-12)
        assert polytope_mean_square(fc) == pytest.approx(ref["mean_square"], rel=1e-12)
        cov = polytope_covariance(fc)
        assert np.abs(cov - ref["covariance"]).max() <= 1e-12 * np.abs(cov).max()
        np.testing.assert_allclose(facet_cross_sums(fc), ref["cross"], rtol=1e-12, atol=1e-12 * n)

    def test_no_full_gather_in_validation_and_moments(self):
        # the largest temporary must stay below one (F, n, n) float64 gather
        n, m = 8, 64
        fc = random_complex(n, m, 5)
        tracemalloc.start()
        try:
            validate_complex(fc)
            polytope_volume(fc)
            polytope_mean_square(fc)
            polytope_covariance(fc)
            facet_cross_sums(fc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fc.facet_count * n * n * 8

    def test_moments_do_no_facet_block_work(self, monkeypatch):
        # the one facet pass is symmetric_hull's; the moment functions only
        # read what it stored
        fc = random_complex(8, 20, 6)
        assert validate_complex(fc).passed

        def refuse(count, width):
            raise AssertionError("facet_blocks() called after symmetric_hull")

        monkeypatch.setattr(hull, "facet_blocks", refuse)
        monkeypatch.setattr("isohull.moments.facet_blocks", refuse, raising=False)
        assert polytope_volume(fc) > 0.0
        assert 0.0 < polytope_mean_square(fc) <= 1.0
        assert polytope_covariance(fc).shape == (8, 8)
        assert facet_cross_sums(fc).shape == (fc.facet_count // 2,)

    def test_trial_path_never_gathers(self):
        # a whole trial, qhull included, peaks below one (F, n, n) float64
        # gather (about 0.73 of one at (8, 24)), so no such gather is made
        n, m = 8, 24
        run_trial(n, m, 6)  # first-call allocations out of the measurement
        tracemalloc.start()
        try:
            record = run_trial(n, m, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < record.facet_count * n * n * 8
