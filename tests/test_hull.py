from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from isohull.hull import (
    DegenerateCloudError,
    FacetComplex,
    InvalidComplexError,
    dump_off_like,
    inradius,
    symmetric_hull,
    validate_complex,
)
from isohull.sphere_stats import PointCloud, sample_symmetric_cloud
from conftest import random_complex
from oracles import brute_force_facets


def facet_id_sets(fc: FacetComplex) -> set[frozenset]:
    return {frozenset(int(i) for i in row) for row in fc.vertex_ids}


class TestConstruction:
    def test_square(self, square):
        assert square.facet_count == 4
        assert validate_complex(square).passed

    def test_octahedron_matches_enumeration(self, octahedron):
        assert octahedron.facet_count == 8
        sym = np.vstack([np.eye(3), -np.eye(3)])
        assert facet_id_sets(octahedron) == brute_force_facets(sym)

    def test_interior_point_unused(self):
        # a short third generator must not appear in any facet; hull
        # construction accepts non-unit inputs on this path
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.0707, 0.0707]])
        fc = symmetric_hull(PointCloud(pts))
        used = set(int(i) for i in fc.vertex_ids.ravel())
        assert 2 not in used and 5 not in used
        assert fc.facet_count == 4

    def test_deterministic(self):
        cloud = sample_symmetric_cloud(4, 10, 77)
        a = symmetric_hull(cloud)
        b = symmetric_hull(cloud)
        assert np.array_equal(a.vertex_ids, b.vertex_ids)
        assert np.array_equal(a.normals, b.normals)

    def test_rank_deficient_cloud_rejected(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        with pytest.raises(DegenerateCloudError):
            symmetric_hull(PointCloud(pts))

    def test_matches_oracle_on_random_instances(self):
        for n, m, seed in [(2, 6, 1), (3, 8, 2), (4, 10, 3), (4, 12, 4)]:
            fc = random_complex(n, m, seed)
            sym = np.vstack(
                [fc.source.points, -fc.source.points]
            )
            assert facet_id_sets(fc) == brute_force_facets(sym)

    def test_no_degeneracies_in_random_sweep(self):
        # the coplanarity check should never trip for generic sphere points
        count = 0
        for seed in range(1200):
            n = 2 + seed % 7  # dimensions 2..8
            m = n + 2 + (seed % 5)
            fc = random_complex(n, m, seed)
            assert validate_complex(fc).passed, (n, m, seed)
            count += 1
        assert count == 1200


class TestValidation:
    def test_all_checks_pass_on_fixture(self, octahedron):
        diag = validate_complex(octahedron)
        assert diag.passed
        assert {c.name for c in diag.checks} == {
            "vertex_on_plane",
            "no_antipodal_pair",
            "distance_in_range",
            "ridge_shared_twice",
            "central_symmetry",
            "containment",
            "simplicial",
            "positive_measure",
        }

    def test_missing_facet_breaks_ridges(self, octahedron):
        mutant = dataclasses.replace(
            octahedron,
            vertex_ids=octahedron.vertex_ids[1:],
            normals=octahedron.normals[1:],
            dists=octahedron.dists[1:],
            volumes=octahedron.volumes[1:],
        )
        diag = validate_complex(mutant)
        ridge = diag.check("ridge_shared_twice")
        assert not ridge.passed
        assert ridge.n_offending == 3  # the three orphaned ridges of the removed facet
        assert not diag.check("central_symmetry").passed

    def test_flipped_normal_is_detected(self):
        # for a symmetric body the flipped constraint coincides with the
        # antipodal facet's, so the point-side check stays green; the
        # on-plane and symmetry checks are what catch the flip
        fc = random_complex(3, 8, 321)
        normals = fc.normals.copy()
        normals[0] = -normals[0]
        mutant = dataclasses.replace(fc, normals=normals)
        diag = validate_complex(mutant)
        assert not diag.passed
        assert not diag.check("vertex_on_plane").passed
        assert not diag.check("central_symmetry").passed

    def test_shrunken_distance_breaks_containment(self):
        fc = random_complex(3, 8, 322)
        dists = fc.dists.copy()
        dists[0] *= 0.5
        mutant = dataclasses.replace(fc, dists=dists)
        diag = validate_complex(mutant)
        assert not diag.check("containment").passed
        assert diag.check("containment").n_offending >= 1

    def test_coplanar_point_fails_only_simplicial(self):
        # (0.5, 0.5) lies on the edge from (1, 0) to (0, 1): three points on
        # one facet line, which qhull merges and triangulates
        fc = symmetric_hull(PointCloud([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        diag = validate_complex(fc)
        assert {c.name for c in diag.checks if not c.passed} == {"simplicial"}
        assert diag.check("simplicial").n_offending == 2  # the edge and its antipode

    def test_facets_pair_up_antipodally(self):
        fc = random_complex(3, 12, 123)
        assert fc.facet_count % 2 == 0
        ids = {frozenset(map(int, row)) for row in fc.vertex_ids}
        two_m = fc.vertices.shape[0]
        for row in fc.vertex_ids:
            anti = frozenset(int((i + two_m // 2) % two_m) for i in row)
            assert anti in ids

    def test_cone_measure_positive(self):
        fc = random_complex(5, 12, 5)
        assert float(np.sum(fc.dists * fc.volumes)) > 0.0

    def test_facet_volumes_match_gram_determinant(self):
        # production volumes come from the cone determinant; the Gram form
        # sqrt(det G) / (n-1)! is the independent reference
        import math

        for n, m, seed in [(2, 5, 61), (3, 7, 62), (5, 11, 63), (8, 12, 64)]:
            fc = random_complex(n, m, seed)
            V = fc.facet_vertices()
            E = V[:, 1:, :] - V[:, :1, :]
            G = np.einsum("fik,fjk->fij", E, E)
            gram = np.sqrt(np.maximum(np.linalg.det(G), 0.0)) / math.factorial(n - 1)
            assert np.abs(fc.volumes - gram).max() <= 1e-10 * gram.max()


class TestInradius:
    def test_octahedron(self, octahedron):
        assert abs(inradius(octahedron) - 1.0 / math.sqrt(3.0)) <= 1e-12

    def test_square(self, square):
        assert abs(inradius(square) - 1.0 / math.sqrt(2.0)) <= 1e-12

    def test_scaling_homogeneity(self):
        cloud = sample_symmetric_cloud(3, 9, 11)
        base = inradius(symmetric_hull(cloud))
        for t in (0.5, 2.0):
            scaled = inradius(symmetric_hull(PointCloud(t * cloud.points)))
            assert abs(scaled - t * base) <= 1e-12 * t

    def test_empty_complex_rejected(self, octahedron):
        mutant = dataclasses.replace(
            octahedron,
            vertex_ids=octahedron.vertex_ids[:0],
            normals=octahedron.normals[:0],
            dists=octahedron.dists[:0],
            volumes=octahedron.volumes[:0],
        )
        with pytest.raises(InvalidComplexError):
            inradius(mutant)


class TestDump:
    def test_roundtrip_counts(self, octahedron):
        text = dump_off_like(octahedron)
        lines = text.strip().splitlines()
        n, m, fcount = map(int, lines[0].split())
        assert (n, m, fcount) == (3, 3, 8)
        coords = [list(map(float, ln.split())) for ln in lines[1 : 1 + 2 * m]]
        assert np.allclose(np.asarray(coords), octahedron.vertices, atol=0)
        facet_rows = [tuple(map(int, ln.split())) for ln in lines[1 + 2 * m :]]
        assert len(facet_rows) == fcount
        assert {frozenset(r) for r in facet_rows} == facet_id_sets(octahedron)
