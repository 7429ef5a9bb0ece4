from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from isohull import hull
from isohull.hull import (
    DegenerateCloudError,
    DegenerateFacetError,
    FacetComplex,
    InvalidComplexError,
    _antipodal_partners,
    _pack_rows,
    _ridges,
    dump_off_like,
    inradius,
    symmetric_hull,
    validate_complex,
)
from isohull.harness import derive_seed
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
        # the coplanarity check should never trip for generic sphere points;
        # qhull without premerge (Q0) must give the facets of its default
        # options, in lexicographic order
        count = 0
        for seed in range(1200):
            n = 2 + seed % 7  # dimensions 2..8
            m = n + 2 + (seed % 5)
            fc = random_complex(n, m, seed)
            assert validate_complex(fc).passed, (n, m, seed)
            default = ConvexHull(fc.vertices)
            assert facet_id_sets(fc) == {frozenset(map(int, s)) for s in default.simplices}
            assert np.array_equal(np.lexsort(fc.vertex_ids.T[::-1]), np.arange(fc.facet_count))
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

    def test_half_sweep_matches_full_slack_matrix(self):
        # reference: the slack of all 2m points against every facet plane
        fc = random_complex(5, 12, 323)
        dists = fc.dists * np.linspace(0.9, 1.1, fc.facet_count)
        mutant = dataclasses.replace(fc, dists=dists)
        slack = fc.vertices @ fc.normals.T - dists
        expected = np.flatnonzero(slack.max(axis=0) > 1e-9)
        assert 0 < expected.size < fc.facet_count
        check = validate_complex(mutant).check("containment")
        assert check.n_offending == expected.size
        assert check.offending == tuple(int(i) for i in expected[:16])

    def test_coplanar_point_fails_only_simplicial(self):
        # (0.5, 0.5) lies on the edge from (1, 0) to (0, 1): three points on
        # one facet line, which qhull merges and triangulates
        fc = symmetric_hull(PointCloud([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        diag = validate_complex(fc)
        assert {c.name for c in diag.checks if not c.passed} == {"simplicial"}
        assert diag.check("simplicial").n_offending == 2  # the edge and its antipode

    def test_sliced_ridge_keys_equal_packed_ridge_rows(self):
        fc = random_complex(6, 15, 325)
        two_m = fc.vertices.shape[0]
        keys = _pack_rows(fc.vertex_ids, two_m)
        rows = _ridges(fc.vertex_ids, None, two_m)
        assert rows.shape == (fc.facet_count * 6, 5)
        assert np.array_equal(_ridges(fc.vertex_ids, keys, two_m), _pack_rows(rows, two_m))

    def test_nudged_antipode_fails_central_symmetry(self):
        # the half-size plane sweep trusts row i + m == -row i exactly
        fc = random_complex(4, 10, 324)
        vertices = fc.vertices.copy()
        vertices[fc.num_points + 3, 0] += 1e-6
        mutant = dataclasses.replace(fc, vertices=vertices)
        assert validate_complex(fc).check("central_symmetry").passed
        assert not validate_complex(mutant).check("central_symmetry").passed

    def test_facets_pair_up_antipodally(self):
        fc = random_complex(3, 12, 123)
        assert fc.facet_count % 2 == 0
        ids = {frozenset(map(int, row)) for row in fc.vertex_ids}
        two_m = fc.vertices.shape[0]
        for row in fc.vertex_ids:
            anti = frozenset(int((i + two_m // 2) % two_m) for i in row)
            assert anti in ids

    def test_pairs_list_each_pair_once(self):
        fc = random_complex(4, 11, 125)
        rep, partner = fc.pairs()
        two_m = fc.vertices.shape[0]
        assert rep.size == fc.facet_count // 2
        assert np.all(rep < partner)
        assert np.array_equal(np.sort(np.concatenate([rep, partner])), np.arange(fc.facet_count))
        anti = np.sort((fc.vertex_ids[rep] + two_m // 2) % two_m, axis=1)
        assert np.array_equal(fc.vertex_ids[partner], anti)
        assert np.array_equal(fc.volumes[partner], fc.volumes[rep])
        # the row lookup used when ids do not pack finds the same partners
        assert np.array_equal(_antipodal_partners(fc.vertex_ids, None, two_m), fc.antipodes())

    def test_unpaired_hull_is_a_resample_event(self, monkeypatch):
        def unpaired(vertex_ids, keys, id_bound):
            return np.full(vertex_ids.shape[0], -1)

        monkeypatch.setattr(hull, "_antipodal_partners", unpaired)
        with pytest.raises(DegenerateFacetError, match="antipodal pairs"):
            random_complex(3, 8, 126)

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


@pytest.fixture(scope="module")
def unpacked() -> FacetComplex:
    # 2m = 258 vertex ids need 9 bits each, so an 8-id facet key would need
    # 72 bits: every key-based path falls back to rows of ids
    rng = np.random.default_rng(8)
    extra = rng.standard_normal((121, 8))
    extra *= 0.1 / np.linalg.norm(extra, axis=1, keepdims=True)
    fc = symmetric_hull(PointCloud(np.vstack([np.eye(8), extra])))
    assert fc.vertices.shape[0] == 258 and fc.facet_count == 256
    assert _pack_rows(fc.vertex_ids, 258) is None
    return fc


def test_symmetric_hull_traced_peak_at_the_heavy_cell():
    # qhull's arrays are read once and dropped before the pairing pass; a
    # second full copy of simplices or equations alive with qhull's own
    # puts the peak near F * n^2 * 8 bytes again.
    n, m = 8, 64
    cloud = sample_symmetric_cloud(n, m, derive_seed(424242, [n, m, 1]))
    tracemalloc.start()
    try:
        fc = symmetric_hull(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * fc.facet_count * n * n * 8


class TestUnpackedIds:
    def test_valid_and_lexicographic(self, unpacked):
        assert validate_complex(unpacked).passed
        assert unpacked.pairs()[0].size == 128
        order = np.lexsort(unpacked.vertex_ids.T[::-1])
        assert np.array_equal(order, np.arange(unpacked.facet_count))

    def test_missing_facet_detected(self, unpacked):
        mutant = dataclasses.replace(
            unpacked,
            vertex_ids=unpacked.vertex_ids[1:],
            normals=unpacked.normals[1:],
            dists=unpacked.dists[1:],
            volumes=unpacked.volumes[1:],
        )
        diag = validate_complex(mutant)
        assert diag.check("ridge_shared_twice").n_offending == 8
        assert not diag.check("central_symmetry").passed

    def test_nudged_antipode_fails_central_symmetry(self, unpacked):
        vertices = unpacked.vertices.copy()
        vertices[129 + 5, 2] += 1e-6
        mutant = dataclasses.replace(unpacked, vertices=vertices)
        assert not validate_complex(mutant).check("central_symmetry").passed


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
