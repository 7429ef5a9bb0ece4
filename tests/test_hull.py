from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

from isohull import hull
from isohull.hull import (
    CONTAINMENT_TOL,
    COPLANARITY_TOL,
    OFFENDING_LIMIT,
    DegenerateCloudError,
    DegenerateFacetError,
    FacetComplex,
    InvalidComplexError,
    _ridges,
    _row_keys,
    dump_off_like,
    inradius,
    symmetric_hull,
    validate_complex,
)
from isohull.harness import derive_seed
from isohull.sphere_stats import PointCloud, sample_symmetric_cloud
from conftest import random_complex
from oracles import brute_force_facets, dense_facet_figures


# the same examples on every run, so a failure reproduces
KEY_EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True)
# the largest id bound up to 2^12 at which rows of each width have 64-bit keys
KEY_BOUNDS = {
    k: max(N for N in range(k, (1 << 12) + 1) if math.comb(N, k) < 1 << 64) for k in range(1, 13)
}


def facet_id_sets(fc: FacetComplex) -> set[frozenset]:
    return {frozenset(int(i) for i in row) for row in fc.vertex_ids}


@st.composite
def id_rows(draw):
    """Strictly increasing id rows of one width below one bound, first and last row appended."""
    width = draw(st.integers(1, 12))
    bound = draw(st.integers(width, KEY_BOUNDS[width]))
    row = st.lists(st.integers(0, bound - 1), min_size=width, max_size=width, unique=True)
    rows = [sorted(r) for r in draw(st.lists(row, min_size=1, max_size=30))]
    rows += [list(range(width)), list(range(bound - width, bound))]
    return np.array(rows, dtype=np.int64), bound


class TestRowKeys:
    @KEY_EXAMPLES
    @given(case=id_rows())
    def test_keys_rank_rows_lexicographically(self, case):
        rows, bound = case
        width = rows.shape[1]
        keys = _row_keys(rows, bound)
        assert keys[-2] == 0 and keys[-1] == math.comb(bound, width) - 1
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))
        assert np.unique(keys).size == np.unique(rows, axis=0).shape[0]
        if width > 1:
            ridge_rows = np.concatenate([np.delete(rows, k, axis=1) for k in range(width)])
            after = math.comb(bound, width - 1) - 1 - _row_keys(ridge_rows, bound)
            assert np.array_equal(_ridges(rows, bound), after)

    def test_key_capacity(self):
        # C(966, 8) < 2^64 <= C(968, 8): (8, 483) is the largest cell at n = 8
        assert _row_keys(np.arange(8)[None], 966)[0] == 0
        with pytest.raises(ValueError, match="64-bit key"):
            _row_keys(np.arange(8)[None], 968)
        # rows wider than half the bound: C(80, 75) fits, C(79 - c, j) for c < 75 - j need not
        assert _row_keys(np.arange(75)[None], 80)[0] == 0

    def test_keys_are_combination_ranks(self):
        for bound in range(1, 16):
            for width in range(1, bound + 1):
                rows = np.array(list(itertools.combinations(range(bound), width)))
                assert np.array_equal(_row_keys(rows, bound), np.arange(rows.shape[0]))


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

    def test_empty_cloud_rejected(self):
        with pytest.raises(DegenerateCloudError):
            symmetric_hull(PointCloud(np.empty((0, 3))))

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


class TestQhullCall:
    """qhull runs as ConvexHull(sym, "Q0") runs it, without its total volume and area."""

    @pytest.mark.parametrize("n, m", [(2, 5), (3, 7), (4, 9), (5, 11), (6, 13), (7, 15), (8, 24)])
    def test_facet_arrays_equal_convex_hulls(self, n, m):
        cloud = sample_symmetric_cloud(n, m, derive_seed(14, [n, m]))
        fc = symmetric_hull(cloud)
        ref = ConvexHull(cloud.symmetrized(), qhull_options="Q0")
        ids = np.sort(ref.simplices, axis=1).astype(np.int64)
        order = np.lexsort(ids.T[::-1])  # key order is the lexicographic order of id rows
        assert np.array_equal(fc.vertex_ids, ids[order])
        assert np.array_equal(fc.normals, ref.equations[order, :n])
        assert np.array_equal(fc.dists, -ref.equations[order, n])

    @staticmethod
    def proxy_qhull(monkeypatch, failing: str = "", error: Exception | None = None) -> list[str]:
        """Wrap hull._Qhull; list the methods called, and make ``failing`` raise ``error``."""
        calls, real = [], hull._Qhull

        class Proxy:
            def __init__(self, *args, **kwargs):
                self._qh = real(*args, **kwargs)

            def __getattr__(self, name):
                calls.append(name)
                if name != failing:
                    return getattr(self._qh, name)

                def fail(*args, **kwargs):
                    raise error

                return fail

        monkeypatch.setattr(hull, "_Qhull", Proxy)
        return calls

    def test_volume_area_is_never_called(self, monkeypatch):
        calls = self.proxy_qhull(monkeypatch)
        assert validate_complex(random_complex(5, 11, 3)).passed
        assert calls == ["triangulate", "get_simplex_facet_array", "close"]

    @pytest.mark.parametrize(
        "error, raised",
        [(QhullError("injected"), DegenerateFacetError), (RuntimeError("injected"), RuntimeError)],
    )
    def test_close_runs_when_reading_facets_raises(self, monkeypatch, error, raised):
        calls = self.proxy_qhull(monkeypatch, "get_simplex_facet_array", error)
        with pytest.raises(raised, match="injected"):
            random_complex(4, 9, 3)
        assert calls == ["triangulate", "get_simplex_facet_array", "close"]


class TestPairSweep:
    """Sweeping one facet per mirrored pair flags every facet the dense slack matrix flags."""

    @staticmethod
    def dense_flags(fc: FacetComplex) -> dict[str, np.ndarray]:
        residual, slack, on_plane = dense_facet_figures(
            fc.vertices, fc.vertex_ids, fc.normals, fc.dists, COPLANARITY_TOL
        )
        return {
            "vertex_on_plane": np.flatnonzero(residual > CONTAINMENT_TOL),
            "containment": np.flatnonzero(slack > CONTAINMENT_TOL),
            "simplicial": np.flatnonzero(on_plane > fc.n),
        }

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        facet=st.integers(0, 2**16),
        moved=st.sampled_from(["normal", "dist"]),
        sign=st.sampled_from([-1.0, 1.0]),
        # within 1% of the tolerance a verdict turns on the last bits of
        # either route's rounding
        scale=st.floats(0.1, 10.0).filter(lambda s: abs(s - 1.0) > 0.01),
    )
    def test_never_weaker_than_the_dense_sweep(self, n, seed, facet, moved, sign, scale):
        fc = random_complex(n, n + 2 + seed % 5, seed)
        f = facet % fc.facet_count
        normals, dists = fc.normals.copy(), fc.dists.copy()
        if moved == "dist":
            dists[f] += sign * scale * CONTAINMENT_TOL
        else:
            u = np.random.default_rng(seed).standard_normal(n)
            normals[f] += sign * scale * CONTAINMENT_TOL * u / np.linalg.norm(u)
        mutant = dataclasses.replace(fc, normals=normals, dists=dists)
        diag = validate_complex(mutant)
        for name, expected in self.dense_flags(mutant).items():
            check = diag.check(name)
            assert check.n_offending <= OFFENDING_LIMIT, name
            assert set(expected) <= set(check.offending), name

    @pytest.mark.parametrize("scale, flagged", [(0.4, False), (0.6, True)])
    def test_pair_mismatch_tightens_the_thresholds(self, scale, flagged):
        # F's plane moved inward by s * tol: every true figure stays below
        # tol, and the pair F, -F (mismatch e = s * tol) is swept once with
        # F's residual and slack raised by e, so both facets fail at s > 1/2
        fc = random_complex(4, 10, 14)
        rep, mate = fc.pairs()
        f, g = int(rep[0]), int(mate[0])
        dists = fc.dists.copy()
        dists[f] -= scale * CONTAINMENT_TOL
        mutant = dataclasses.replace(fc, dists=dists)
        assert all(bad.size == 0 for bad in self.dense_flags(mutant).values())
        diag = validate_complex(mutant)
        for name in ("vertex_on_plane", "containment"):
            assert diag.check(name).offending == ((f, g) if flagged else ()), name
        assert diag.check("central_symmetry").passed
        assert diag.check("simplicial").passed

    @pytest.mark.parametrize("on_plane", [0, 3], ids=["no-base-point", "three-base-points"])
    def test_plane_through_the_origin(self, on_plane):
        # F's distance set to 0: a point and its antipode lie on its plane
        # together, and the pair F, -F (mismatch d_-F) is swept one by one;
        # with F's normal orthogonal to three base points, 6 > n points lie
        # on F's plane
        fc = random_complex(4, 10, 14)
        f = int(fc.pairs()[0][0])
        normals, dists = fc.normals.copy(), fc.dists.copy()
        dists[f] = 0.0
        if on_plane:
            normals[f] = np.linalg.svd(fc.vertices[:on_plane])[2][-1]
        mutant = dataclasses.replace(fc, normals=normals, dists=dists)
        diag = validate_complex(mutant)
        _, slack, points = dense_facet_figures(
            mutant.vertices, mutant.vertex_ids, mutant.normals, mutant.dists, COPLANARITY_TOL
        )
        assert points[f] == 2 * on_plane
        containment = diag.check("containment").offending
        assert containment == tuple(np.flatnonzero(slack > CONTAINMENT_TOL)) == (f,)
        simplicial = diag.check("simplicial")
        assert simplicial.offending == tuple(np.flatnonzero(points > mutant.n))
        assert simplicial.detail == f"up to {points.max()} points on one facet plane"


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

    def test_ridge_keys_count_the_ridge_rows_after(self):
        fc = random_complex(6, 15, 325)
        two_m = fc.vertices.shape[0]
        rows = np.concatenate([np.delete(fc.vertex_ids, k, axis=1) for k in range(6)])
        after = math.comb(two_m, 5) - 1 - _row_keys(rows, two_m)
        assert np.array_equal(_ridges(fc.vertex_ids, two_m), after)

    def test_reversed_id_row_fails_validation(self):
        # keys rank strictly increasing rows only; a reversed row must not
        # slip through with a wrong key
        fc = random_complex(4, 10, 327)
        ids = fc.vertex_ids.copy()
        ids[3] = ids[3, ::-1]
        diag = validate_complex(dataclasses.replace(fc, vertex_ids=ids))
        assert validate_complex(fc).passed and not diag.passed
        ridge = diag.check("ridge_shared_twice")
        assert 3 in ridge.offending and ridge.n_offending >= 4

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

    def test_unpaired_hull_is_a_resample_event(self, monkeypatch):
        def unpaired(keys, vertex_ids, id_bound):
            return np.full(vertex_ids.shape[0], -1)

        monkeypatch.setattr(hull, "_antipodal_partners", unpaired)
        with pytest.raises(DegenerateFacetError, match="antipodal pairs"):
            random_complex(3, 8, 126)

    def test_two_key_passes_per_hull(self, monkeypatch):
        # the facet keys that order the facets also locate their antipodes
        row_keys, shapes = hull._row_keys, []

        def counted(rows, id_bound):
            shapes.append(rows.shape)
            return row_keys(rows, id_bound)

        monkeypatch.setattr(hull, "_row_keys", counted)
        fc = random_complex(4, 12, 7)
        assert validate_complex(fc).passed
        assert shapes == [fc.vertex_ids.shape] * 2

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
def wide_ids() -> FacetComplex:
    # 2m = 258 vertex ids need 9 bits each, so 8 ids packed side by side
    # would need 72 bits; their rank needs log2 C(258, 8) < 50
    rng = np.random.default_rng(8)
    extra = rng.standard_normal((121, 8))
    extra *= 0.1 / np.linalg.norm(extra, axis=1, keepdims=True)
    fc = symmetric_hull(PointCloud(np.vstack([np.eye(8), extra])))
    assert fc.vertices.shape[0] == 258 and fc.facet_count == 256
    assert 8 * math.ceil(math.log2(258)) > 64
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
    def test_valid_and_lexicographic(self, wide_ids):
        assert validate_complex(wide_ids).passed
        assert wide_ids.pairs()[0].size == 128
        order = np.lexsort(wide_ids.vertex_ids.T[::-1])
        assert np.array_equal(order, np.arange(wide_ids.facet_count))

    def test_missing_facet_detected(self, wide_ids):
        mutant = dataclasses.replace(
            wide_ids,
            vertex_ids=wide_ids.vertex_ids[1:],
            normals=wide_ids.normals[1:],
            dists=wide_ids.dists[1:],
            volumes=wide_ids.volumes[1:],
        )
        diag = validate_complex(mutant)
        assert diag.check("ridge_shared_twice").n_offending == 8
        assert not diag.check("central_symmetry").passed

    def test_nudged_antipode_fails_central_symmetry(self, wide_ids):
        vertices = wide_ids.vertices.copy()
        vertices[129 + 5, 2] += 1e-6
        mutant = dataclasses.replace(wide_ids, vertices=vertices)
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
