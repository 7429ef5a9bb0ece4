from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from isohull.hull import symmetric_hull
from isohull.isotropy import NotSPDError, isotropy_constant
from isohull.moments import polytope_covariance, polytope_volume
from isohull.sphere_stats import RngStream, sphere_points
from isohull.hull import inradius
from conftest import bounded_condition_map, cross_polytope_complex, random_complex
from oracles import ball_fallback_bound, cofactor_det, isotropic_transform


def random_spd(n: int, seed: int) -> np.ndarray:
    A = np.asarray(RngStream(seed).gaussian((n, n)))
    return A @ A.T + 0.05 * np.eye(n)


def det_cov(covariance: np.ndarray) -> float:
    return isotropy_constant(1.0, covariance).det_cov


class TestCholeskyDet:
    """The covariance determinant behind ``isotropy_constant``."""

    def test_identity(self):
        assert det_cov(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert det_cov(np.diag([0.25, 0.25])) == pytest.approx(1.0 / 16.0, abs=1e-16)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_cofactor_expansion(self, n):
        for seed in range(5):
            M = random_spd(n, 300 + seed)
            assert det_cov(M) == pytest.approx(cofactor_det(M), rel=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPDError):
            det_cov(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSPDError):
            det_cov(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_tiny_pivot(self):
        with pytest.raises(NotSPDError):
            det_cov(np.diag([1.0, 1e-15]))

    @pytest.mark.parametrize(
        "volume, covariance, error",
        [
            (1.0, np.full((3, 3), np.nan), NotSPDError),
            (1.0, np.array([[1.0, 0.0], [0.0, np.inf]]), NotSPDError),
            (math.nan, np.eye(3), ValueError),
            (math.inf, np.eye(3), ValueError),
            (0.0, np.eye(3), ValueError),
            (1.0, np.ones((2, 3)), ValueError),
            (1.0, np.ones(3), ValueError),
            (1.0, np.ones((0, 0)), ValueError),
        ],
        ids=["nan-cov", "inf-cov", "nan-volume", "inf-volume", "zero-volume", "2x3", "1-D", "0x0"],
    )
    def test_rejects_non_finite_and_misshapen_input(self, volume, covariance, error):
        # NaN compares False against every guard, so each is written to fail on it
        with pytest.raises(error, match="not SPD|must be"):
            isotropy_constant(volume, covariance)

    def test_is_the_one_spd_gate(self):
        # polytope_covariance only symmetrizes; an indefinite second-moment
        # sum reaches isotropy_constant, which rejects it
        fc = random_complex(3, 9, 5)
        fc = dataclasses.replace(fc, cone_second=-fc.cone_second)
        cov = polytope_covariance(fc)
        assert np.array_equal(cov, cov.T)
        with pytest.raises(NotSPDError):
            isotropy_constant(polytope_volume(fc), cov)


class TestIsotropyConstant:
    def test_square_value(self):
        rep = isotropy_constant(2.0, np.eye(2) / 6.0)
        assert rep.l_k == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-12)

    def test_octahedron_value(self):
        rep = isotropy_constant(4.0 / 3.0, np.eye(3) / 10.0)
        expected = math.sqrt(0.1 / (4.0 / 3.0) ** (2.0 / 3.0))
        assert rep.l_k == pytest.approx(expected, abs=1e-12)
        assert rep.l_k == pytest.approx(0.28731, abs=5e-6)

    def test_identity_bound_tight_for_isotropic_covariance(self):
        for n in range(2, 6):
            fc = cross_polytope_complex(n)
            rep = isotropy_constant(polytope_volume(fc), polytope_covariance(fc))
            assert abs(rep.l_k - rep.identity_bound) <= 1e-12

    def test_bound_ordering_on_random_instances(self):
        for seed in range(8):
            fc = random_complex(2 + seed % 5, 10 + seed, 500 + seed)
            rep = isotropy_constant(polytope_volume(fc), polytope_covariance(fc))
            assert 0.0 < rep.l_k <= rep.identity_bound + 1e-10

    def test_scale_and_rotation_invariance(self):
        fc = random_complex(4, 12, 510)
        vol = polytope_volume(fc)
        cov = polytope_covariance(fc)
        base = isotropy_constant(vol, cov).l_k
        rot, _ = np.linalg.qr(np.asarray(RngStream(511).gaussian((4, 4))))
        assert isotropy_constant(vol, rot @ cov @ rot.T).l_k == pytest.approx(base, rel=1e-10)
        t = 1.9
        assert isotropy_constant(t**4 * vol, t**2 * cov).l_k == pytest.approx(base, rel=1e-10)

    def test_affine_invariance_through_pipeline(self):
        fc = random_complex(3, 9, 512)
        base = isotropy_constant(polytope_volume(fc), polytope_covariance(fc)).l_k
        for seed in (513, 514):
            T = bounded_condition_map(RngStream(seed), 3, 0.5, 1.5)  # condition <= 4
            fc2 = symmetric_hull(fc.points @ T.T)
            other = isotropy_constant(polytope_volume(fc2), polytope_covariance(fc2)).l_k
            assert other == pytest.approx(base, rel=1e-8)

    def test_closed_form_minimizes_sampled_functional(self):
        # n L_K^2 <= trace(T Cov T^t) / |K|^{2/n} for every det-one T
        fc = random_complex(3, 10, 515)
        vol = polytope_volume(fc)
        cov = polytope_covariance(fc)
        l_k = isotropy_constant(vol, cov).l_k
        T = np.asarray(RngStream(516).gaussian((10_000, 3, 3)))
        dets = np.abs(np.linalg.det(T))
        T = T[dets > 1e-6] / dets[dets > 1e-6, None, None] ** (1.0 / 3.0)
        funcs = np.einsum("tij,jk,tik->t", T, cov, T) / vol ** (2.0 / 3.0)
        sampled = np.sqrt(funcs / 3.0)
        assert l_k <= sampled.min() + 1e-10


class TestIsotropicTransform:
    def test_inverse_square_root_matches_covariance(self):
        # T is symmetric, maps the body to volume one, and T Cov T^t is the
        # image's covariance L_K^2 * Identity
        for seed in range(5):
            n = 2 + seed
            fc = random_complex(n, 2 * n + 3, 400 + seed)
            vol = polytope_volume(fc)
            cov = polytope_covariance(fc)
            l_k = isotropy_constant(vol, cov).l_k
            T, _ = isotropic_transform(fc)
            assert np.abs(T - T.T).max() <= 1e-12
            assert abs(np.linalg.det(T)) * vol == pytest.approx(1.0, rel=1e-10)
            assert np.abs(T @ cov @ T.T - l_k**2 * np.eye(n)).max() <= 1e-11

    def test_cross_polytope_needs_scaling_only(self):
        fc = cross_polytope_complex(4)
        T, _ = isotropic_transform(fc)
        off = T - np.diag(np.diag(T))
        assert np.abs(off).max() <= 1e-10
        assert np.abs(np.diag(T) - T[0, 0]).max() <= 1e-10

    def test_transformed_body_is_isotropic(self):
        fc = random_complex(3, 9, 520)
        T, cloud = isotropic_transform(fc)
        fc2 = symmetric_hull(cloud)
        assert polytope_volume(fc2) == pytest.approx(1.0, abs=1e-10)
        cov2 = polytope_covariance(fc2)
        thetas = sphere_points(3, 100, RngStream(521))
        moments = np.einsum("ti,ij,tj->t", thetas, cov2, thetas)
        spread = (moments.max() - moments.min()) / moments.mean()
        assert spread < 1e-8

    def test_new_covariance_is_lk_squared_identity(self):
        fc = random_complex(4, 13, 522)
        l_k = isotropy_constant(polytope_volume(fc), polytope_covariance(fc)).l_k
        _, cloud = isotropic_transform(fc)
        cov2 = polytope_covariance(symmetric_hull(cloud))
        assert np.abs(cov2 - l_k**2 * np.eye(4)).max() <= 1e-8


class TestBallFallbackBound:
    def test_quarter_ball_closed_form(self):
        from isohull.sphere_stats import ball_volume

        for n in (2, 4, 8, 16):
            expected = 4.0 / (math.sqrt(n) * ball_volume(n) ** (1.0 / n))
            assert ball_fallback_bound(n, 0.25) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_inradius(self):
        vals = [ball_fallback_bound(5, r) for r in (0.1, 0.2, 0.4, 0.8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dominates_actual_constant(self, octahedron):
        rep = isotropy_constant(
            polytope_volume(octahedron), polytope_covariance(octahedron)
        )
        assert rep.l_k <= ball_fallback_bound(3, inradius(octahedron))

    def test_dominates_on_random_instances(self):
        for seed in range(5):
            fc = random_complex(3 + seed % 3, 12 + seed, 530 + seed)
            rep = isotropy_constant(polytope_volume(fc), polytope_covariance(fc))
            assert rep.l_k <= ball_fallback_bound(fc.n, inradius(fc))
