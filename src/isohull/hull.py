"""Boundary facet complex of the symmetric hull conv{+-P_1, ..., +-P_m}.

Construction runs qhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 22(4),
1996) over all 2m symmetrized points with no symmetry shortcuts and
without premerging (qhull option ``Q0``; scipy adds ``Qt``, so every facet
comes back as a simplex).  Random sphere points are in
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
+ m of the vertex table is the exact negation of row i; the plane sweep
relies on that to visit only the m base points, and the
``central_symmetry`` check fails any complex that breaks it.

The body is centrally symmetric, so its facets come in antipodal pairs
F, -F with equal (n-1)-volume, distance and cone moments.
:meth:`FacetComplex.pairs` finds each facet's partner with one
``searchsorted`` of the antipodal keys among the sorted facet keys and
lists one representative per pair; facet volumes (here) and cone moments
(:mod:`isohull.moments`) are computed for representatives only, in facet
blocks of about ``_BLOCK_FLOATS`` float64s per temporary, so no
(F, n, n) gather is ever held and no BLAS product is large enough to wake
OpenBLAS threads.

All facet geometry is stored as flat arrays (ids, normals, distances,
(n-1)-volumes) to keep per-trial work vectorized.
:class:`InvalidComplexError` is a structural fault; a covariance that is
not positive-definite is ``NotSPDError`` from the one SPD gate,
:func:`isohull.isotropy.isotropy_constant`.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator
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
UNIT_VERTEX_TOL = 1e-9
OFFENDING_LIMIT = 16  # facet indices a check reports

# Float64s per temporary in every blocked facet pass (128 KB): a block of
# (block, n, n) vertex coordinates or (block, m) plane products stays in
# cache, and each matrix product in it does 2^14 * n multiply-adds, under
# the 2^18 up to which OpenBLAS runs on one thread (for n < 16).  At
# (n, m) = (8, 64) a block is 256 facets.
_BLOCK_FLOATS = 1 << 14


def facet_blocks(count: int, width: int) -> Iterator[slice]:
    """Slices covering ``count`` facets, each with ``width`` floats per facet."""
    step = max(1, _BLOCK_FLOATS // width)
    for lo in range(0, count, step):
        yield slice(lo, lo + step)


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
    _antipodes: np.ndarray | None = field(default=None, init=False, repr=False)
    _pairs: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)
    _moments: tuple | None = field(default=None, init=False, repr=False)

    @property
    def facet_count(self) -> int:
        return int(self.vertex_ids.shape[0])

    @property
    def num_points(self) -> int:
        return int(self.vertices.shape[0]) // 2

    def facet_vertices(self) -> np.ndarray:
        """Coordinates of every facet's vertices, shape (F, n, n).

        Gathered on each call and not kept: at campaign scale it is tens of
        megabytes.  The trial path works on facet blocks instead.
        """
        return self.vertices[self.vertex_ids]

    def antipodes(self) -> np.ndarray:
        """Index of each facet's antipodal facet, or -1 where it is absent.

        Cached.  Facets must be in key order, as :func:`symmetric_hull`
        leaves them.
        """
        if self._antipodes is None:
            two_m = self.vertices.shape[0]
            keys = _pack_rows(self.vertex_ids, two_m)
            self._antipodes = _antipodal_partners(self.vertex_ids, keys, two_m)
        return self._antipodes

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(representative, partner) facet indices, one entry per antipodal pair.

        Cached.  The representative is the facet of the pair that comes
        first in key order.  Raises :class:`InvalidComplexError` when the
        facets do not pair up.
        """
        if self._pairs is None:
            partner = self.antipodes()
            own = np.arange(partner.size)
            if (
                np.any(partner < 0)
                or np.any(partner == own)
                or not np.array_equal(partner[partner], own)
            ):
                raise InvalidComplexError("facets do not come in antipodal pairs")
            rep = np.flatnonzero(partner > own)
            self._pairs = (rep, partner[rep])
        return self._pairs

    def cone_volumes(self) -> np.ndarray:
        """Volume of each cone conv(0, facet): dist * facet_volume / n."""
        return self.dists * self.volumes / self.n

    def is_unit(self) -> bool:
        norms = np.linalg.norm(self.vertices, axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= UNIT_VERTEX_TOL))


def symmetric_hull(cloud: PointCloud) -> FacetComplex:
    """Facet complex of the convex hull of the 2m symmetrized points.

    Requires the cloud to span R^n (rank checked at tolerance 1e-9 on the
    singular values).  Raises :class:`DegenerateFacetError` when qhull
    fails, a facet plane passes through the origin or has zero volume, or
    the facets do not come in antipodal pairs; callers treat that as a
    resample event.  Coplanar points are not
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

    # qhull's arrays are read once (int32 rows sorted, then widened; normals
    # and distances taken through the key order) and qhull's object is
    # dropped before the pairing and volume pass: a second full copy alive
    # next to qhull's own used to set the trial's memory peak.
    ids = np.sort(qh.simplices, axis=1).astype(np.int64)
    keys = _pack_rows(ids, sym.shape[0])
    order = np.lexsort(ids.T[::-1]) if keys is None else np.argsort(keys)
    ids = ids[order]
    normals = qh.equations[order, :n]
    dists = -qh.equations[order, n]
    del qh, keys, order
    if np.any(dists <= 1e-12):
        raise DegenerateFacetError(
            "degenerate: perturbation required (facet plane through origin)"
        )

    fc = FacetComplex(
        n=n,
        vertices=sym,
        vertex_ids=ids,
        normals=normals,
        dists=dists,
        volumes=np.empty(ids.shape[0]),
        source=cloud,
    )
    try:
        rep, partner = fc.pairs()
    except InvalidComplexError as exc:
        raise DegenerateFacetError(f"degenerate: perturbation required ({exc})") from exc

    # (n-1)-volume through the cone determinant: the simplex conv(0, F) has
    # volume |det[Q_1 ... Q_n]| / n! = dist * |F| / n, so
    # |F| = |det V| / ((n-1)! * dist).  Equivalent to the Gram-determinant
    # form sqrt(det G)/(n-1)! but without squaring the conditioning (the
    # tests pin the two routes together).  The antipodal facet has the
    # same volume.
    volumes = fc.volumes
    scale = math.factorial(n - 1)
    for blk in facet_blocks(rep.size, n * n):
        r = rep[blk]
        volumes[r] = np.abs(np.linalg.det(sym[ids[r]])) / (scale * dists[r])
    volumes[partner] = volumes[rep]
    if np.any(volumes <= 1e-14):
        raise DegenerateFacetError(
            "degenerate: perturbation required (zero-volume facet)"
        )
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
                {**dataclasses.asdict(c), "offending": list(c.offending)} for c in self.checks
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


def _antipodal_partners(
    vertex_ids: np.ndarray, keys: np.ndarray | None, id_bound: int
) -> np.ndarray:
    """Index of each facet's antipodal facet, or -1 when it is absent.

    With packed keys (sorted, as facets are kept in key order) this is one
    ``searchsorted`` of the antipodal keys; otherwise a lookup of id rows.
    """
    anti = np.sort((vertex_ids + id_bound // 2) % id_bound, axis=1)
    if keys is None:
        lookup = {tuple(r): i for i, r in enumerate(vertex_ids.tolist())}
        return np.array([lookup.get(tuple(q), -1) for q in anti.tolist()], dtype=np.int64)
    anti_keys = _pack_rows(anti, id_bound)
    pos = np.minimum(np.searchsorted(keys, anti_keys), keys.size - 1)
    return np.where(keys[pos] == anti_keys, pos, -1)


def _first(idx: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in idx[:OFFENDING_LIMIT])


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

    def check(name: str, bad: np.ndarray, detail: str = "", n_offending: int | None = None):
        # A check that fails at the facet indices ``bad``; ``n_offending``
        # defaults to their count.
        count = bad.size if n_offending is None else n_offending
        checks.append(CheckResult(name, count == 0, _first(bad), int(count), detail))

    F = fc.facet_count
    n = fc.n
    two_m = fc.vertices.shape[0]
    m = two_m // 2

    # One sweep over blocks of the facet-major inner products G = N P^T of
    # every facet normal with the m base points.  Vertex id i is base point
    # i % m, negated for i >= m, so the facet's own vertices read their
    # plane residuals from G.  A point and its antipode have slacks G - d
    # and -G - d, so the larger is |G| - d, and their distances to the
    # plane are ||G| - d| and |G| + d; these give each facet's largest
    # slack and the number of points on its hyperplane.  The same blocks
    # compare each facet's normal with its antipodal facet's.
    P = fc.vertices[:m]
    partner = fc.antipodes()
    residual = np.empty(F)
    holds_antipodes = np.empty(F, dtype=bool)
    flip = np.empty(F)
    viol = np.empty(F)
    on_plane = np.empty(F, dtype=np.int64)
    for blk in facet_blocks(F, m):
        ids = fc.vertex_ids[blk]
        base = ids % m
        sorted_base = np.sort(base, axis=1)
        holds_antipodes[blk] = (sorted_base[:, 1:] == sorted_base[:, :-1]).any(axis=1)
        flip[blk] = np.abs(fc.normals[blk] + fc.normals[partner[blk]]).max(axis=1)
        G = fc.normals[blk] @ P.T
        d = fc.dists[blk, None]
        own = np.take_along_axis(G, base, axis=1)
        own = np.where(ids < m, own, -own) - d
        residual[blk] = np.abs(own, out=own).max(axis=1)
        A = np.abs(G, out=G)
        on_plane[blk] = 0
        if d.min() <= COPLANARITY_TOL:  # else |G| + d > tol everywhere
            on_plane[blk] = np.count_nonzero(A + d <= COPLANARITY_TOL, axis=1)
        A -= d
        viol[blk] = A.max(axis=1)
        on_plane[blk] += np.count_nonzero(np.abs(A, out=A) <= COPLANARITY_TOL, axis=1)

    check(
        "vertex_on_plane",
        np.flatnonzero(residual > CONTAINMENT_TOL),
        f"max residual {residual.max():.3e}" if F else "",
    )
    check("no_antipodal_pair", np.flatnonzero(holds_antipodes))

    dist_ok = fc.dists > 0.0
    if fc.is_unit():
        dist_ok &= fc.dists <= 1.0 + CONTAINMENT_TOL
    check("distance_in_range", np.flatnonzero(~dist_ok))

    # Every (n-1)-subset of a facet is a ridge and must appear in exactly
    # two facets; the count is of offending ridge slots.
    keys = _pack_rows(fc.vertex_ids, two_m)
    ridges = _ridges(fc.vertex_ids, keys, two_m)
    if keys is not None and _all_keys_paired(ridges):
        bad_ridges = np.empty(0, dtype=np.int64)
    else:
        bad_ridges = np.flatnonzero(_multiset_counts(ridges) != 2)
    check(
        "ridge_shared_twice",
        np.unique(bad_ridges % F),
        f"{bad_ridges.size} ridge slots with count != 2" if bad_ridges.size else "",
        bad_ridges.size,
    )

    # Row i + m must be the exact negation of row i (the sweep visits only
    # the first m rows), and facets must pair up antipodally with negated
    # normals.  qhull's own normals of both facets are compared, so this
    # tests geometry independent of the pairing.
    antipodal = np.array_equal(fc.vertices[m:], -fc.vertices[:m])
    bad = np.flatnonzero((partner < 0) | (flip > CONTAINMENT_TOL))
    checks.append(
        CheckResult(
            "central_symmetry",
            antipodal and bad.size == 0,
            _first(bad),
            int(bad.size),
            "" if antipodal else "vertex rows m.. are not the negated rows ..m",
        )
    )

    check(
        "containment",
        np.flatnonzero(viol > CONTAINMENT_TOL),
        f"max slack {viol.max():.3e}" if F else "",
    )
    check(
        "simplicial",
        np.flatnonzero(on_plane > n),
        f"up to {on_plane.max()} points on one facet plane" if F else "",
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
