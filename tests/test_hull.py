from __future__ import annotations

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    facet_blocks,
    inradius,
    symmetric_hull,
    validate_complex,
)
from isohull.harness import derive_seed
from isohull.sphere_stats import PointCloud, sample_symmetric_cloud
from conftest import implied_facets, random_complex
from oracles import brute_force_facets, dense_facet_figures


# the same examples on every run, so a failure reproduces
KEY_EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True)
# the largest id bound up to 2^12 at which rows of each width have 64-bit keys
KEY_BOUNDS = {
    k: max(N for N in range(k, (1 << 12) + 1) if math.comb(N, k) < 1 << 64) for k in range(1, 13)
}


def facet_id_sets(fc: FacetComplex) -> set[frozenset]:
    """The id sets of the 2P facets of R u -R: each row's, and its mirror's."""
    return {frozenset(int(i) for i in row) for row in implied_facets(fc)["ids"]}


def implied_in_key_order(fc: FacetComplex) -> dict[str, np.ndarray]:
    """:func:`implied_facets`, sorted into key order (the lexicographic order of id rows)."""
    full = implied_facets(fc)
    order = np.lexsort(full["ids"].T[::-1])
    return {name: column[order] for name, column in full.items()}


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

    @pytest.mark.parametrize("bound, width", [(12, 6), (128, 7), (128, 8), (966, 8)])
    def test_weight_tables_are_shared_and_read_only(self, bound, width):
        table = hull._weights(bound, width)
        assert hull._weights(bound, width) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        uncached = hull._weights.__wrapped__(bound, width)
        assert np.array_equal(table, uncached)
        rows = np.array(list(itertools.islice(itertools.combinations(range(bound), width), 50)))
        rows = np.concatenate([rows, np.arange(bound - width, bound)[None]])
        keys = np.full(rows.shape[0], math.comb(bound, width) - 1, dtype=np.uint64)
        for i in range(width):
            keys -= uncached[width - i].take(rows[:, i])
        assert np.array_equal(_row_keys(rows, bound), keys)


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
        used = set().union(*facet_id_sets(fc))
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
            cloud = sample_symmetric_cloud(n, m, seed)
            sym = np.vstack([cloud.points, -cloud.points])
            assert facet_id_sets(symmetric_hull(cloud)) == brute_force_facets(sym)

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
            rows = fc.vertex_ids
            assert np.array_equal(np.lexsort(rows.T[::-1]), np.arange(rows.shape[0]))
            count += 1
        assert count == 1200


def full_hull_ids(sym: np.ndarray) -> np.ndarray:
    """ConvexHull(sym, "Q0")'s id rows, each sorted, in key order."""
    ids = np.sort(ConvexHull(sym, qhull_options="Q0").simplices, axis=1).astype(np.int64)
    return ids[np.lexsort(ids.T[::-1])]  # key order is the lexicographic order of id rows


def qhull_rows(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Wrap hull._Qhull; collect the input points and the simplices array of every hull.

    The input points are in qhull's order, the apex first, and the
    simplices index them.
    """
    rows, real = [], hull._Qhull

    class Recording:
        def __init__(self, mode, points, *args, **kwargs):
            self._points = [points]
            self._qh = real(mode, points, *args, **kwargs)

        def add_points(self, points):
            self._points.append(points)
            self._qh.add_points(points)

        def get_simplex_facet_array(self):
            arrays = self._qh.get_simplex_facet_array()
            rows.append((np.vstack(self._points), arrays[0]))
            return arrays

        def __getattr__(self, name):
            return getattr(self._qh, name)

    monkeypatch.setattr(hull, "_Qhull", Recording)
    return rows


def fourth_moment_axis(base: np.ndarray, steps: int = 10) -> np.ndarray:
    """The apex axis by matrix products: ``steps`` power steps d <- B^T (B d)^3 / norm from e_1."""
    d = np.eye(base.shape[1])[0]
    for _ in range(steps):
        d = base.T @ (base @ d) ** 3
        d /= np.linalg.norm(d)
    return d


class TestApexAxis:
    """The apex lies along a local maximiser of the base points' fourth moment."""

    @pytest.mark.parametrize("n, m, seed", [(2, 3, 1), (4, 12, 2), (8, 24, 3), (8, 64, 4)])
    def test_axis_is_unit_and_raises_the_fourth_moment(self, n, m, seed):
        base = sample_symmetric_cloud(n, m, seed).points
        d = hull._apex_axis(base)
        assert abs(np.linalg.norm(d) - 1.0) <= 1e-15
        assert np.abs(d - fourth_moment_axis(base)).max() <= 1e-12
        # each power step raises sum_i <P_i, d>^4, starting from e_1
        assert np.sum((base @ d) ** 4) >= np.sum(base[:, 0] ** 4)

    def test_axis_ignores_power_of_two_scales(self):
        base = sample_symmetric_cloud(5, 15, 6).points
        d = hull._apex_axis(base)
        for k in (-20, -1, 3, 20):
            assert np.array_equal(hull._apex_axis(base * 2.0**k), d)

    def test_axis_apex_cuts_qhull_rows_at_8_24(self, monkeypatch):
        # qhull's rows are the cone facets over the silhouette of K seen from
        # the apex plus the facets of K it cannot hide; the axis apex sees
        # a smaller silhouette than e_1's (about 0.92 of the rows on these
        # clouds), and the complex is the same
        n, m = 8, 24
        clouds = [sample_symmetric_cloud(n, m, derive_seed(23, [n, m, t])) for t in range(10)]
        returned = qhull_rows(monkeypatch)
        axis = [symmetric_hull(c) for c in clouds]
        monkeypatch.setattr(hull, "_apex_axis", lambda base: np.eye(base.shape[1])[0])
        e_1 = [symmetric_hull(c) for c in clouds]
        counts = [r.shape[0] for _, r in returned]
        assert sum(counts[:10]) <= 0.95 * sum(counts[10:])
        for a, b in zip(axis, e_1):
            assert np.array_equal(a.vertex_ids, b.vertex_ids)
            assert np.abs(a.normals - b.normals).max() <= 1e-12

    def test_axis_bits_do_not_depend_on_the_openblas_core(self):
        # einsum and elementwise steps only: no BLAS call, so another
        # OpenBLAS kernel leaves every bit of the axis as it is
        code = (
            "import numpy as np; from isohull import hull; "
            "from isohull.sphere_stats import sample_symmetric_cloud; "
            "print([hull._apex_axis(sample_symmetric_cloud(n, m, 11).points).tobytes().hex() "
            "for n, m in ((3, 9), (8, 24), (8, 64))])"
        )
        src = str(Path(hull.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": path, **extra},
            ).stdout
            for extra in ({}, {"OPENBLAS_CORETYPE": "Haswell"})
        ]
        assert outputs[0] == outputs[1] != ""


class TestQhullCall:
    """qhull runs as ConvexHull(sym + apex, "Q0") runs it, without its total volume and area."""

    @pytest.mark.parametrize("n, m", [(2, 5), (3, 7), (4, 9), (5, 11), (6, 13), (7, 15), (8, 24)])
    def test_facet_arrays_equal_convex_hulls(self, n, m):
        # the implied facets are exactly the full hull's; every plane is a
        # qhull plane of another insertion history, or its partner's negated one
        cloud = sample_symmetric_cloud(n, m, derive_seed(14, [n, m]))
        full = implied_in_key_order(symmetric_hull(cloud))
        ref = ConvexHull(cloud.symmetrized(), qhull_options="Q0")
        ids = np.sort(ref.simplices, axis=1).astype(np.int64)
        order = np.lexsort(ids.T[::-1])
        assert np.array_equal(full["ids"], ids[order])
        assert np.abs(full["normals"] - ref.equations[order, :n]).max() <= 1e-12
        assert np.abs(full["dists"] + ref.equations[order, n]).max() <= 1e-12

    @staticmethod
    def proxy_qhull(monkeypatch, failing: str = "", error: Exception | None = None) -> list:
        """Wrap hull._Qhull; list its input and the points added, then the methods called.

        ``failing`` raises ``error``.
        """
        calls, real = [], hull._Qhull

        class Proxy:
            def __init__(self, mode, points, *args, **kwargs):
                calls.append(points.copy())
                self._qh = real(mode, points, *args, **kwargs)

            def add_points(self, points, *args):
                calls.insert(1, points.copy())
                return self.__getattr__("add_points")(points, *args)

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
        fc = random_complex(5, 11, 3)
        assert validate_complex(fc).passed
        start, added, *methods = calls
        assert methods == ["add_points", "triangulate", "get_simplex_facet_array", "close"]
        # top-down: the apex -APEX_REACH * (largest l1 norm) * d, with d the
        # fourth-moment axis of the m base points, and the n points highest
        # along d; then the other 2m - n points by decreasing <p, d>
        d = hull._apex_axis(fc.vertices[:11])
        reach = hull.APEX_REACH * np.abs(fc.vertices).sum(axis=1).max()
        assert start.shape == (6, 5) and added.shape == (17, 5)
        assert np.array_equal(start[0], -reach * d)
        assert np.abs(start[0] + reach * fourth_moment_axis(fc.vertices[:11])).max() <= 1e-12 * reach
        points = np.vstack([start[1:], added])
        assert np.all(np.diff(points @ d) < 0)
        assert np.array_equal(np.unique(points, axis=0), np.unique(fc.vertices, axis=0))

    @pytest.mark.parametrize(
        "error, raised",
        [(QhullError("injected"), DegenerateFacetError), (RuntimeError("injected"), RuntimeError)],
    )
    def test_close_runs_when_reading_facets_raises(self, monkeypatch, error, raised):
        calls = self.proxy_qhull(monkeypatch, "get_simplex_facet_array", error)
        with pytest.raises(raised, match="injected"):
            random_complex(4, 9, 3)
        assert calls[2:] == ["add_points", "triangulate", "get_simplex_facet_array", "close"]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 6),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-20, 20),
    )
    def test_half_hull_equals_the_full_hull_at_every_scale(self, n, data, seed, k):
        # powers of two scale every coordinate exactly, so the complex built
        # at scale 2^k, scaled back, is judged with tolerances relative to
        # the body (the absolute ones fail small bodies on their own)
        m = data.draw(st.integers(n + 1, 3 * n), label="m")
        cloud = sample_symmetric_cloud(n, m, seed)
        sym = cloud.symmetrized() * 2.0**k
        ids, normals, dists = hull._facet_table(sym)
        fc = symmetric_hull(cloud)
        assert np.array_equal(ids, fc.vertex_ids)
        assert np.array_equal(implied_in_key_order(fc)["ids"], full_hull_ids(sym))
        # one row per pair, the member of smaller key, rows in key order
        keys = _row_keys(ids, 2 * m)
        assert np.all(keys[1:] > keys[:-1])
        assert np.all(keys < _row_keys(np.sort((ids + m) % (2 * m), axis=1), 2 * m))
        scaled = dataclasses.replace(fc, normals=normals, dists=dists * 2.0**-k)
        assert validate_complex(scaled).passed

    def test_near_apex_returns_pairs_whole(self, monkeypatch):
        # an apex at half the reach lies just outside K (K is in the unit
        # ball), so qhull returns most pairs whole and each is kept once
        cloud = sample_symmetric_cloud(5, 15, 16)
        fc = symmetric_hull(cloud)
        returned = qhull_rows(monkeypatch)
        monkeypatch.setattr(hull, "APEX_REACH", 0.5)
        near = symmetric_hull(cloud)
        # qhull's input rows back to point ids; the apex is input row 0
        points, rows = returned[0]
        point_id = {p.tobytes(): i for i, p in enumerate(cloud.symmetrized())}
        ids = np.array([point_id.get(p.tobytes(), 30) for p in points])
        assert ids[0] == 30 and sorted(ids[1:]) == list(range(30))
        kept = [frozenset(map(int, ids[r])) for r in rows if 0 not in r]
        whole = set(kept) & {frozenset((i + 15) % 30 for i in r) for r in kept}
        assert len(kept) == len(set(kept)) > 0.75 * fc.facet_count
        assert len(whole) > 0.5 * fc.facet_count
        assert np.array_equal(near.vertex_ids, fc.vertex_ids)
        assert np.abs(near.normals - fc.normals).max() <= 1e-12
        assert np.abs(near.dists - fc.dists).max() <= 1e-12
        assert validate_complex(near).passed


class TestPairSweep:
    """Sweeping each row once flags every row whose facet or mirror the dense sweep flags."""

    @staticmethod
    def dense_flags(fc: FacetComplex) -> dict[str, np.ndarray]:
        # the dense figures of all 2P facets of R u -R; row i offends when
        # facet i or its mirror, facet i + P, does
        full = implied_facets(fc)
        residual, slack, on_plane = dense_facet_figures(
            fc.vertices, full["ids"], full["normals"], full["dists"], COPLANARITY_TOL
        )
        rows = fc.vertex_ids.shape[0]
        return {
            name: np.flatnonzero(flag[:rows] | flag[rows:])
            for name, flag in (
                ("vertex_on_plane", residual > CONTAINMENT_TOL),
                ("containment", slack > CONTAINMENT_TOL),
                ("simplicial", on_plane > fc.n),
            )
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
        f = facet % fc.vertex_ids.shape[0]
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

    @pytest.mark.parametrize("scale", [0.6, 1.5])
    def test_moved_row_moves_its_mirror(self, scale):
        # row f's plane moved inward by s * tol moves its mirror's too: the
        # flags are the dense sweep's over R u -R, none at s < 1 and row f
        # alone at s > 1, and the complex stays centrally symmetric
        fc = random_complex(4, 10, 14)
        f = 0
        dists = fc.dists.copy()
        dists[f] -= scale * CONTAINMENT_TOL
        mutant = dataclasses.replace(fc, dists=dists)
        diag = validate_complex(mutant)
        dense = self.dense_flags(mutant)
        for name, expected in dense.items():
            assert diag.check(name).offending == tuple(expected), name
        flagged = (f,) if scale > 1.0 else ()
        assert tuple(dense["vertex_on_plane"]) == tuple(dense["containment"]) == flagged
        assert diag.check("central_symmetry").passed

    @pytest.mark.parametrize("n, m", [(3, 9), (5, 15), (8, 24)])
    def test_construction_pairs_are_swept_once(self, n, m, monkeypatch):
        # the complex holds one row per pair, and the plane sweep (blocks m
        # floats wide) visits each row once: F/2 facets
        fc = random_complex(n, m, derive_seed(424242, [n, m, 2]))
        swept = []

        def recording(count, width):
            for blk in facet_blocks(count, width):
                if width == m:
                    swept.append(len(range(count)[blk]))
                yield blk

        monkeypatch.setattr(hull, "facet_blocks", recording)
        assert validate_complex(fc).passed
        assert sum(swept) == fc.facet_count // 2

    @pytest.mark.parametrize("on_plane", [0, 3], ids=["no-base-point", "three-base-points"])
    def test_plane_through_the_origin(self, on_plane):
        # row f's distance set to 0: a point and its antipode lie on its
        # plane together; with its normal orthogonal to three base points,
        # 6 > n points lie on it
        fc = random_complex(4, 10, 14)
        f = 0
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
        # deleting a row deletes F and -F: the three ridges of each are left
        # once, in the rows whose facet or mirror bordered them
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
        assert ridge.n_offending == 6
        assert set(ridge.offending) == {0, 1, 2}
        # the facets left are still distinct and centrally symmetric
        assert diag.check("central_symmetry").passed

    def test_flipped_normal_is_detected(self):
        # for a symmetric body the flipped constraint coincides with the
        # antipodal facet's, so the point-side check stays green, and the
        # mirror's normal flips with its row's; the on-plane check is what
        # catches the flip
        fc = random_complex(3, 8, 321)
        normals = fc.normals.copy()
        normals[0] = -normals[0]
        mutant = dataclasses.replace(fc, normals=normals)
        diag = validate_complex(mutant)
        assert {c.name for c in diag.checks if not c.passed} == {"vertex_on_plane"}
        assert diag.check("vertex_on_plane").offending == (0,)

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
        rows = fc.vertex_ids.shape[0]
        dists = fc.dists * np.linspace(0.9, 1.1, rows)
        mutant = dataclasses.replace(fc, dists=dists)
        slack = fc.vertices @ fc.normals.T - dists
        expected = np.flatnonzero(slack.max(axis=0) > 1e-9)
        assert 0 < expected.size < rows
        check = validate_complex(mutant).check("containment")
        assert check.n_offending == expected.size
        assert check.offending == tuple(int(i) for i in expected[:16])

    def test_coplanar_point_fails_only_simplicial(self):
        # (0.5, 0.5) lies on the edge from (1, 0) to (0, 1): three points on
        # one facet line, which qhull splits in two there
        fc = symmetric_hull(PointCloud([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        diag = validate_complex(fc)
        assert {c.name for c in diag.checks if not c.passed} == {"simplicial"}
        assert diag.check("simplicial").n_offending == 2  # the edge's two rows

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

    def test_unsorted_row_and_repeated_id(self):
        # id columns compared by |i - i'| in {0, m} flag the rows that
        # i % m == i' % m flags, in an unsorted row as in a sorted one
        fc = random_complex(4, 10, 328)
        ids = fc.vertex_ids.copy()
        ids[2] = ids[2, ::-1]
        ids[5, 1] = ids[5, 0]
        ids[7, 3] = (ids[7, 0] + 10) % 20
        diag = validate_complex(dataclasses.replace(fc, vertex_ids=ids))
        base = ids % 10
        holds = [f for f in range(ids.shape[0]) if len(set(base[f])) < 4]
        assert holds == [5, 7]
        assert diag.check("no_antipodal_pair").offending == (5, 7)
        ridge = diag.check("ridge_shared_twice")
        assert {2, 5, 7} <= set(ridge.offending) and not ridge.passed

    @staticmethod
    def with_rows(fc: FacetComplex, rows: np.ndarray) -> FacetComplex:
        """A copy of ``fc`` holding its rows ``rows``, in that order."""
        return dataclasses.replace(
            fc,
            vertex_ids=fc.vertex_ids[rows],
            normals=fc.normals[rows],
            dists=fc.dists[rows],
            volumes=fc.volumes[rows],
            cross_sums=fc.cross_sums[rows],
        )

    def test_row_whose_mirror_is_a_row_fails_central_symmetry(self):
        # row 3 replaced by the mirror of row 1, with row 1's mirror plane:
        # every point-side figure holds, but -F is listed twice in R u -R
        fc = random_complex(4, 10, 329)
        mutant = self.with_rows(fc, np.arange(fc.vertex_ids.shape[0]))
        mutant.vertex_ids[3] = np.sort((fc.vertex_ids[1] + 10) % 20)
        mutant.normals[3] = -fc.normals[1]
        mutant.dists[3] = fc.dists[1]
        diag = validate_complex(mutant)
        symmetry = diag.check("central_symmetry")
        assert not symmetry.passed and symmetry.offending == (1, 3)
        for name in ("vertex_on_plane", "containment", "simplicial"):
            assert diag.check(name).passed, name

    def test_duplicated_row_fails_central_symmetry_and_ridges(self):
        fc = random_complex(4, 10, 330)
        rows = np.insert(np.arange(fc.vertex_ids.shape[0]), 5, 5)
        mutant = self.with_rows(fc, rows)
        diag = validate_complex(mutant)
        symmetry = diag.check("central_symmetry")
        assert not symmetry.passed and symmetry.offending == (5, 6)
        ridge = diag.check("ridge_shared_twice")
        # every ridge of F and of -F now appears three times
        assert not ridge.passed and ridge.n_offending >= 2 * 2 * 4
        assert {5, 6} <= set(ridge.offending)

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
        ids = facet_id_sets(fc)
        assert len(ids) == fc.facet_count
        two_m = fc.vertices.shape[0]
        for facet in ids:
            assert frozenset((i + two_m // 2) % two_m for i in facet) in ids

    def test_pairs_list_each_pair_once(self):
        # no row's mirror is a row, and each row is the member of smaller
        # key; each mirror, rebuilt on its own ids, lies on its plane and
        # has its row's volume and cross sum
        fc = random_complex(4, 11, 125)
        two_m = fc.vertices.shape[0]
        mirror_keys = _row_keys(np.sort((fc.vertex_ids + two_m // 2) % two_m, axis=1), two_m)
        keys = _row_keys(fc.vertex_ids, two_m)
        assert np.all(keys < mirror_keys) and not np.isin(mirror_keys, keys).any()
        full = implied_facets(fc)
        V = fc.vertices[full["ids"]]
        volumes = np.abs(np.linalg.det(V)) / (math.factorial(fc.n - 1) * full["dists"])
        s = V.sum(axis=1)
        cross = np.einsum("fi,fi->f", s, s) - np.einsum("fki,fki->f", V, V)
        np.testing.assert_allclose(full["volumes"], volumes, rtol=1e-12, atol=0)
        np.testing.assert_allclose(full["cross_sums"], cross, rtol=0, atol=1e-12)
        slack = V @ full["normals"][:, :, None] - full["dists"][:, None, None]
        assert np.abs(slack).max() <= 1e-12

    def test_key_passes_per_hull(self, monkeypatch):
        # qhull's rows without the apex and their mirrors are keyed once
        # each; validation keys the P id rows of R and of -R once, and the row
        # keys that order the rows are not recomputed
        row_keys, shapes = hull._row_keys, []

        def counted(rows, id_bound):
            shapes.append(rows.shape)
            return row_keys(rows, id_bound)

        monkeypatch.setattr(hull, "_row_keys", counted)
        returned = qhull_rows(monkeypatch)
        fc = random_complex(4, 12, 7)
        assert validate_complex(fc).passed
        kept = int(np.count_nonzero((returned[0][1] != 0).all(axis=1)))
        assert fc.facet_count // 2 <= kept < fc.facet_count
        P = fc.facet_count // 2
        assert shapes == [(kept, 4), (kept, 4), (P, 4), (P, 4)]

    def test_cone_measure_positive(self):
        fc = random_complex(5, 12, 5)
        assert float(np.sum(fc.dists * fc.volumes)) > 0.0

    def test_facet_volumes_match_gram_determinant(self):
        # production volumes come from the cone determinant; the Gram form
        # sqrt(det G) / (n-1)! is the independent reference
        import math

        for n, m, seed in [(2, 5, 61), (3, 7, 62), (5, 11, 63), (8, 12, 64)]:
            fc = random_complex(n, m, seed)
            V = fc.vertices[fc.vertex_ids]
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


@pytest.fixture(scope="module")
def heavy_hull_peak() -> tuple[FacetComplex, int]:
    """The heavy-cell complex and the tracemalloc peak of building it, in bytes."""
    n, m = 8, 64
    cloud = sample_symmetric_cloud(n, m, derive_seed(424242, [n, m, 1]))
    tracemalloc.start()
    try:
        fc = symmetric_hull(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return fc, peak


def test_symmetric_hull_traced_peak_at_the_heavy_cell(heavy_hull_peak):
    # qhull's arrays are read once and dropped before the pairing pass; a
    # second full copy of simplices or equations alive with qhull's own
    # puts the peak near F * n^2 * 8 bytes again.
    fc, peak = heavy_hull_peak
    assert peak < 0.75 * fc.facet_count * fc.n * fc.n * 8


def test_symmetric_hull_holds_one_row_per_pair_at_the_heavy_cell(heavy_hull_peak):
    # no table of all F facets is built: with one, the peak is about 0.57
    # of F * n^2 * 8 bytes, and with one row per pair about 0.29
    fc, peak = heavy_hull_peak
    assert peak < 0.5 * fc.facet_count * fc.n * fc.n * 8


def test_validation_holds_one_ridge_table():
    # the (n, 2P) uint64 ridge keys of R u -R are the one table
    # validate_complex holds; holding also a (2P, n) table of the id rows
    # of R u -R and a sorted copy of the ridge keys peaked at 3.3x the
    # table here
    n, m = 8, 24
    fc = symmetric_hull(sample_symmetric_cloud(n, m, derive_seed(424242, [n, m, 1])))
    table = 2 * fc.vertex_ids.size * 8
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert validate_complex(fc).passed
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert table > 1 << 20  # well above the blocked passes' fixed temporaries
    assert peak <= 2 * table


def test_qhull_returns_under_four_fifths_of_the_facets_at_the_heavy_cell(monkeypatch):
    # the apex hides all but about 0.71 F of the full hull's facets there
    n, m = 8, 64
    returned = qhull_rows(monkeypatch)
    fc = symmetric_hull(sample_symmetric_cloud(n, m, derive_seed(424242, [n, m, 1])))
    assert returned[0][1].shape[0] < 0.8 * fc.facet_count


class TestUnpackedIds:
    def test_valid_and_lexicographic(self, wide_ids):
        assert validate_complex(wide_ids).passed
        assert wide_ids.vertex_ids.shape[0] == 128
        order = np.lexsort(wide_ids.vertex_ids.T[::-1])
        assert np.array_equal(order, np.arange(128))

    def test_missing_facet_detected(self, wide_ids):
        mutant = dataclasses.replace(
            wide_ids,
            vertex_ids=wide_ids.vertex_ids[1:],
            normals=wide_ids.normals[1:],
            dists=wide_ids.dists[1:],
            volumes=wide_ids.volumes[1:],
        )
        # the 8 ridges of F and the 8 of -F are left once each
        diag = validate_complex(mutant)
        assert diag.check("ridge_shared_twice").n_offending == 16
        assert diag.check("central_symmetry").passed

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
        # the complex's rows, then their mirror rows
        full = implied_facets(octahedron)["ids"]
        assert facet_rows == [tuple(int(i) for i in row) for row in full]
