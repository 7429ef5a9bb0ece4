"""Boundary facet complex of the symmetric hull conv{+-P_1, ..., +-P_m}.

Construction runs qhull over all 2m symmetrized points with no symmetry
shortcuts and without premerging (qhull option ``Q0``; scipy adds ``Qt``,
so every facet comes back as a simplex).  Random sphere points are in
general position with probability one, so there is nothing to merge, and
on the default campaign ``Q0`` gives the same facet sets as qhull's
defaults at a fraction of the cost.  Central symmetry, ridge pairing,
containment and simpliciality are then re-checked post hoc by
:func:`validate_complex`, which is independent of the construction path.
A detected coplanarity (more than n points on one facet's hyperplane)
fails validation, so the caller can resample with a fresh derived seed
instead of perturbing coordinates.

Each facet is identified by one key: its sorted vertex ids packed into a
uint64 (when they fit), which orders facets lexicographically and from
which every ridge key is sliced without materializing the ridges.  Row i
+ m of the vertex table is the exact negation of row i; the containment
sweep relies on that to visit only the m base points, and the
``central_symmetry`` check fails any complex that breaks it.

All facet geometry is stored as flat arrays (ids, normals, distances,
(n-1)-volumes) to keep per-trial work vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .sphere_stats import PointCloud

__all__ = [
    "FacetComplex",
    "symmetric_hull",
    "validate_complex",
    "inradius",
    "dump_off_like",
    "DegenerateCloudError",
    "DegenerateFacetError",
    "InvalidComplexError",
    "ComplexDiagnostics",
    "CheckResult",
]

SPAN_TOL = 1e-9
COPLANARITY_TOL = 1e-9
CONTAINMENT_TOL = 1e-9

# facet-chunk size for point-vs-hyperplane sweeps; keeps the (2m x F)
# slack matrix out of memory at campaign scale
_PLANE_CHUNK = 16384


class DegenerateCloudError(ValueError):
    """The input points do not span R^n."""


class DegenerateFacetError(RuntimeError):
    """qhull failed or gave a degenerate facet; the trial should be resampled."""


class InvalidComplexError(RuntimeError):
    """A facet complex violates a structural invariant."""


@dataclass(eq=False)
class FacetComplex:
    """Simplicial boundary of a symmetric polytope.

    ``vertices`` is the full 2m-row symmetrized coordinate table;
    ``vertex_ids`` has one sorted n-tuple of row indices per facet.
    Instances are immutable by convention and safe to share across threads.
    """

    n: int
    vertices: np.ndarray  # (2m, n)
    vertex_ids: np.ndarray  # (F, n) int64, rows sorted
    normals: np.ndarray  # (F, n) unit outward
    dists: np.ndarray  # (F,) > 0
    volumes: np.ndarray  # (F,) > 0
    source: PointCloud | None = None
    _cone_cdf: np.ndarray | None = field(default=None, init=False, repr=False)
    _facet_coords: np.ndarray | None = field(default=None, init=False, repr=False)
    _cross_sums: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def facet_count(self) -> int:
        return int(self.vertex_ids.shape[0])

    @property
    def num_points(self) -> int:
        return int(self.vertices.shape[0]) // 2

    def facet_vertices(self) -> np.ndarray:
        """Coordinates of every facet's vertices, shape (F, n, n).

        The gather is cached (:func:`symmetric_hull` stores the one it made
        for the facet volumes); at campaign scale it is tens of megabytes
        and every moment computation needs it.
        """
        if self._facet_coords is None:
            self._facet_coords = self.vertices[self.vertex_ids]
        return self._facet_coords

    def cone_volumes(self) -> np.ndarray:
        """Volume of each cone conv(0, facet): dist * facet_volume / n."""
        return self.dists * self.volumes / self.n

    def is_unit(self, tol: float = 1e-9) -> bool:
        norms = np.linalg.norm(self.vertices, axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= tol))


def _simplex_facet_volumes(V: np.ndarray, dists: np.ndarray, n: int) -> np.ndarray:
    # (n-1)-volume through the cone determinant: the simplex conv(0, F) has
    # volume |det[Q_1 ... Q_n]| / n! = dist * |F| / n, so
    # |F| = |det V| / ((n-1)! * dist).  Equivalent to the Gram-determinant
    # form sqrt(det G)/(n-1)! but in one batched determinant and without
    # squaring the conditioning (the tests pin the two routes together).
    det = np.abs(np.linalg.det(V))
    return det / (math.factorial(n - 1) * dists)


def symmetric_hull(cloud: PointCloud) -> FacetComplex:
    """Facet complex of the convex hull of the 2m symmetrized points.

    Requires the cloud to span R^n (rank checked at tolerance 1e-9 on the
    singular values).  Raises :class:`DegenerateFacetError` when qhull
    fails or a facet plane passes through the origin or has zero volume;
    callers treat that as a resample event.  Coplanar points are not
    checked here; :func:`validate_complex` reports them.  Accepts
    general-position non-unit inputs (the transformed-cloud path).
    """
    pts = cloud.points
    n = cloud.n
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if pts.shape[0] < 1:
        raise DegenerateCloudError("degenerate: points do not span (empty cloud)")
    sv = np.linalg.svd(pts, compute_uv=False)
    if sv.size < n or sv[n - 1] <= SPAN_TOL:
        raise DegenerateCloudError("degenerate: points do not span")

    sym = cloud.symmetrized()
    try:
        qh = ConvexHull(sym, qhull_options="Q0")
    except QhullError as exc:
        raise DegenerateFacetError(f"degenerate: perturbation required ({exc})") from exc

    ids = np.sort(qh.simplices.astype(np.int64), axis=1)
    keys = _pack_rows(ids, sym.shape[0])
    order = np.lexsort(ids.T[::-1]) if keys is None else np.argsort(keys)
    ids = ids[order]
    equations = qh.equations[order]
    normals = np.ascontiguousarray(equations[:, :n])
    dists = -equations[:, n]
    if np.any(dists <= 1e-12):
        raise DegenerateFacetError(
            "degenerate: perturbation required (facet plane through origin)"
        )

    coords = sym[ids]
    volumes = _simplex_facet_volumes(coords, dists, n)
    if np.any(volumes <= 1e-14):
        raise DegenerateFacetError(
            "degenerate: perturbation required (zero-volume facet)"
        )

    fc = FacetComplex(
        n=n,
        vertices=sym,
        vertex_ids=ids,
        normals=normals,
        dists=dists,
        volumes=volumes,
        source=cloud,
    )
    fc._facet_coords = coords
    return fc


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    offending: tuple[int, ...] = ()
    n_offending: int = 0
    detail: str = ""


@dataclass(frozen=True)
class ComplexDiagnostics:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "offending": list(c.offending),
                    "n_offending": c.n_offending,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _id_bits(id_bound: int) -> int:
    return max(1, int(id_bound - 1).bit_length())


def _pack_rows(rows: np.ndarray, id_bound: int) -> np.ndarray | None:
    # Pack each row of sorted ids into one uint64 key (exact, no hashing)
    # when the ids fit; keys then order rows lexicographically.  None means
    # the caller must fall back to row-wise comparison.
    bits = _id_bits(id_bound)
    if rows.shape[1] * bits > 63:
        return None
    keys = np.zeros(rows.shape[0], dtype=np.uint64)
    shift = np.uint64(bits)
    for c in range(rows.shape[1]):
        keys = (keys << shift) | rows[:, c].astype(np.uint64)
    return keys


def _ridges(vertex_ids: np.ndarray, keys: np.ndarray | None, id_bound: int) -> np.ndarray:
    """The F * n ridges; block k holds every facet without its column k.

    With packed facet keys each ridge key is sliced out of its facet key
    (the fields before column k shift down over it), which equals packing
    the ridge row itself; otherwise the ridges are rows of ids.
    """
    F, n = vertex_ids.shape
    if keys is None:
        return np.concatenate([np.delete(vertex_ids, k, axis=1) for k in range(n)])
    bits = _id_bits(id_bound)
    ridges = np.empty(F * n, dtype=np.uint64)
    for k in range(n):
        low = bits * (n - 1 - k)  # width of the fields after column k
        head = (keys >> np.uint64(low + bits)) << np.uint64(low)
        ridges[k * F : (k + 1) * F] = head | (keys & np.uint64((1 << low) - 1))
    return ridges


def _multiset_counts(items: np.ndarray) -> np.ndarray:
    """Occurrences of each item (packed key or row of ids) among all items."""
    _, inverse, counts = np.unique(items, axis=0, return_inverse=True, return_counts=True)
    return counts[inverse]


def _all_keys_paired(keys: np.ndarray) -> bool:
    # Fast verdict on "every key appears exactly twice".
    if keys.size % 2:
        return False
    k = np.sort(keys)
    even, odd = k[0::2], k[1::2]
    if not np.array_equal(even, odd):
        return False
    return bool(np.all(odd[:-1] != even[1:]))


def _match_rows(items: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index into ``items`` of each query, or -1 when absent.

    Items and queries are both packed keys or both rows of ids.
    """
    if items.ndim == 2:
        lookup = {tuple(r): i for i, r in enumerate(items.tolist())}
        return np.array([lookup.get(tuple(q), -1) for q in queries.tolist()], dtype=np.int64)
    order = np.argsort(items, kind="stable")
    sk = items[order]
    pos = np.searchsorted(sk, queries)
    pos = np.minimum(pos, sk.size - 1)
    found = sk[pos] == queries
    return np.where(found, order[pos], -1)


def _first(idx: np.ndarray, limit: int = 16) -> tuple[int, ...]:
    return tuple(int(i) for i in idx[:limit])


def validate_complex(fc: FacetComplex) -> ComplexDiagnostics:
    """Re-check every structural invariant of a facet complex.

    Pure; returns a per-check report with offending facet indices instead
    of raising.  Checks: facet vertices lie on their hyperplane, no facet
    contains an antipodal pair, distances are positive (and at most 1 for
    unit-vertex complexes), every ridge is shared by exactly two facets,
    vertex rows and facets come in exact antipodal pairs (facets with
    negated normals), all points lie on the inner side of every facet, no
    facet's hyperplane carries more than n points (a coplanar,
    non-simplicial facet that qhull triangulated), and the cone
    decomposition has positive total measure.
    """
    checks: list[CheckResult] = []
    F = fc.facet_count
    n = fc.n
    two_m = fc.vertices.shape[0]
    m = two_m // 2

    V = fc.facet_vertices()
    residual = np.abs(np.einsum("fkj,fj->fk", V, fc.normals) - fc.dists[:, None])
    bad = np.flatnonzero(residual.max(axis=1) > CONTAINMENT_TOL)
    checks.append(
        CheckResult(
            "vertex_on_plane",
            bad.size == 0,
            _first(bad),
            int(bad.size),
            f"max residual {residual.max():.3e}" if F else "",
        )
    )

    mod = np.sort(fc.vertex_ids % m, axis=1)
    dup = (mod[:, 1:] == mod[:, :-1]).any(axis=1)
    bad = np.flatnonzero(dup)
    checks.append(CheckResult("no_antipodal_pair", bad.size == 0, _first(bad), int(bad.size)))

    dist_ok = fc.dists > 0.0
    if fc.is_unit():
        dist_ok &= fc.dists <= 1.0 + CONTAINMENT_TOL
    bad = np.flatnonzero(~dist_ok)
    checks.append(CheckResult("distance_in_range", bad.size == 0, _first(bad), int(bad.size)))

    # Every (n-1)-subset of a facet is a ridge and must appear in exactly
    # two facets.
    keys = _pack_rows(fc.vertex_ids, two_m)
    ridges = _ridges(fc.vertex_ids, keys, two_m)
    if keys is not None and _all_keys_paired(ridges):
        checks.append(CheckResult("ridge_shared_twice", True))
    else:
        bad_ridges = np.flatnonzero(_multiset_counts(ridges) != 2)
        bad_facets = np.unique(bad_ridges % F)
        checks.append(
            CheckResult(
                "ridge_shared_twice",
                bad_ridges.size == 0,
                _first(bad_facets),
                int(bad_ridges.size),
                f"{bad_ridges.size} ridge slots with count != 2"
                if bad_ridges.size
                else "",
            )
        )

    # Row i + m must be the exact negation of row i (the plane sweep below
    # visits only the first m rows), and facets must pair up antipodally
    # with negated normals.
    antipodal = np.array_equal(fc.vertices[m:], -fc.vertices[:m])
    anti_ids = np.sort((fc.vertex_ids + m) % two_m, axis=1)
    if keys is None:
        partner = _match_rows(fc.vertex_ids, anti_ids)
    else:
        partner = _match_rows(keys, _pack_rows(anti_ids, two_m))
    sym_ok = partner >= 0
    if np.any(sym_ok):
        has = np.flatnonzero(sym_ok)
        flipped = fc.normals[partner[has]] + fc.normals[has]
        sym_ok[has] &= np.abs(flipped).max(axis=1) <= CONTAINMENT_TOL
    bad = np.flatnonzero(~sym_ok)
    checks.append(
        CheckResult(
            "central_symmetry",
            antipodal and bad.size == 0,
            _first(bad),
            int(bad.size),
            "" if antipodal else "vertex rows m.. are not the negated rows ..m",
        )
    )

    # One sweep over the (m x F) inner products G = P N^T of the base points
    # gives each facet's largest slack and the number of points on its
    # hyperplane.  A point and its antipode have slacks G - d and -G - d,
    # so the larger is |G| - d, and their distances to the plane are
    # ||G| - d| and |G| + d.
    P = fc.vertices[:m]
    viol = np.empty(F)
    on_plane = np.empty(F, dtype=np.int64)
    for lo in range(0, F, _PLANE_CHUNK):
        hi = lo + _PLANE_CHUNK
        A = np.abs(P @ fc.normals[lo:hi].T)
        d = fc.dists[lo:hi]
        viol[lo:hi] = A.max(axis=0) - d
        on_plane[lo:hi] = np.count_nonzero(
            np.abs(A - d) <= COPLANARITY_TOL, axis=0
        ) + np.count_nonzero(A + d <= COPLANARITY_TOL, axis=0)
    bad = np.flatnonzero(viol > CONTAINMENT_TOL)
    checks.append(
        CheckResult(
            "containment",
            bad.size == 0,
            _first(bad),
            int(bad.size),
            f"max slack {viol.max():.3e}" if F else "",
        )
    )
    bad = np.flatnonzero(on_plane > n)
    checks.append(
        CheckResult(
            "simplicial",
            bad.size == 0,
            _first(bad),
            int(bad.size),
            f"up to {on_plane.max()} points on one facet plane" if F else "",
        )
    )

    total = float(np.sum(fc.dists * fc.volumes))
    checks.append(
        CheckResult(
            "positive_measure",
            F > 0 and bool(np.all(fc.volumes > 0.0)) and total > 0.0,
            detail=f"sum dist*vol = {total:.6e}",
        )
    )

    return ComplexDiagnostics(tuple(checks))


def inradius(fc: FacetComplex) -> float:
    """Largest r with r * B_2^n contained in the polytope: min facet distance."""
    if fc.facet_count == 0:
        raise InvalidComplexError("empty facet list")
    return float(fc.dists.min())


def dump_off_like(fc: FacetComplex) -> str:
    """Plain-text dump: header 'n m facet_count', coordinate rows, facet rows.

    Coordinates are the 2m symmetrized points with 17 significant digits;
    facet rows list vertex ids into that table.
    """
    m = fc.num_points
    lines = [f"{fc.n} {m} {fc.facet_count}"]
    for row in fc.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    for row in fc.vertex_ids:
        lines.append(" ".join(str(int(i)) for i in row))
    return "\n".join(lines) + "\n"
