"""Boundary facet complex of the symmetric hull conv{+-P_1, ..., +-P_m}.

Construction runs qhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 22(4),
1996) without premerging (qhull option ``Q0``, plus ``Qt`` so that every
facet comes back as a simplex).  Random sphere points are in general
position with probability one, so there is nothing to merge, and on the
default campaign ``Q0`` gives the same facet sets as qhull's defaults at a
fraction of the cost.

K is centrally symmetric, so its facets come in antipodal pairs F, -F, and
qhull builds only about half of them.  Its input is the 2m points plus one
apex a = -R r e_1, with r the largest l1 norm of a point and R =
``APEX_REACH``; qhull returns the facets of conv(K, a).  A returned row
without the apex id 2m spans a supporting hyperplane of K through n of its
vertices, so it is a facet of K.  A facet of K with outward normal u and
distance d is a facet of conv(K, a) exactly when <u, a> < d, and since
<u, a> + <-u, a> = 0 < 2d at least one facet of every pair survives, with
a at least d inside its plane.  The member of smaller key represents each
pair, with its own qhull plane or its returned partner's negated one, and
the other member is synthesized: ids (ids + m) mod 2m, the exact negated
normal and the same distance.  At (n, m) = (8, 64) qhull then returns
about 0.73 F rows in place of F.  R = 100 is the fastest of 10, 30, 100
and 300 there; a farther apex gains nothing, since qhull's roundoff grows
with the largest coordinate.

qhull is called through scipy's private ``scipy.spatial._qhull._Qhull``,
with the steps of ``ConvexHull.__init__`` except its total volume and
area (qhull's ``qh_getarea`` over every facet, about 0.1 s of an (8, 64)
hull, never read here) and its copy of the points.  ``TestQhullCall`` in
``tests/test_hull.py`` pins the call: the id rows equal ``ConvexHull``'s
without the apex and the planes agree within 1e-12, ``volume_area`` is
never called and ``close`` always is, so a scipy release that changes the
private entry point fails there.

Central symmetry, ridge pairing, containment and simpliciality are then
re-checked post hoc by :func:`validate_complex`, which is independent of
the construction path.  A detected coplanarity (more than n points on one
facet's hyperplane) fails validation, so the caller can resample with a
fresh derived seed instead of perturbing coordinates.

Each facet is identified by one uint64 key, the lexicographic rank of its
sorted vertex ids among all n-subsets of the 2m ids (combinatorial number
system; Knuth, TAOCP 4A 7.2.1.3), exact while C(2m, n) < 2^64; every ridge
key is summed from the same binomial weights without forming the ridges.
Row i + m of the vertex table is the exact negation of row i; the plane
sweep relies on that to visit only the m base points and one facet of
each exactly mirrored antipodal pair, and the ``central_symmetry`` check
fails any complex that breaks it.

The two facets of a pair have equal (n-1)-volume, distance and cone
moments.  :meth:`FacetComplex.pairs` finds each facet's partner with one
``searchsorted`` of the antipodal keys among the sorted facet keys and
lists one representative per pair.  One pass over the representatives,
in facet blocks of about ``_BLOCK_FLOATS`` float64s per temporary, gathers
each facet's vertices once and gives its volume, its cross sum and its
cone second moment (read by :mod:`isohull.moments`), so no (F, n, n)
gather is ever held and no BLAS product is large enough to wake OpenBLAS
threads.

All facet geometry is stored as flat arrays (ids, normals, distances,
(n-1)-volumes, cross sums) to keep per-trial work vectorized.
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
from scipy.spatial import QhullError
from scipy.spatial._qhull import _Qhull

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

# The apex's distance from the origin in units of the largest l1 norm of a
# point (module docstring).
APEX_REACH = 100.0


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

    ``vertices`` is the full 2m-row symmetrized coordinate table, whose
    rows :m are the base points; ``vertex_ids`` has one sorted n-tuple of
    row indices per facet.
    Instances are immutable by convention and safe to share across threads.
    """

    n: int
    vertices: np.ndarray  # (2m, n)
    vertex_ids: np.ndarray  # (F, n) int64, rows sorted
    normals: np.ndarray  # (F, n) unit outward
    dists: np.ndarray  # (F,) > 0
    volumes: np.ndarray  # (F,) > 0
    cross_sums: np.ndarray  # (F,) sum over i != j of <Q_i, Q_j>
    cone_second: np.ndarray  # (n, n) sum over facets of int_conv(0,F) x x^T
    _antipodes: np.ndarray | None = field(default=None, init=False, repr=False)
    _pairs: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    @property
    def facet_count(self) -> int:
        return int(self.vertex_ids.shape[0])

    @property
    def num_points(self) -> int:
        return int(self.vertices.shape[0]) // 2

    def antipodes(self) -> np.ndarray:
        """Index of each facet's antipodal facet, or -1 where it is absent.

        Cached; :func:`symmetric_hull` sets it from the keys it sorted by.
        Facets must be in key order, as :func:`symmetric_hull` leaves them.
        """
        if self._antipodes is None:
            N = self.vertices.shape[0]
            self._antipodes = _antipodal_partners(_row_keys(self.vertex_ids, N), self.vertex_ids, N)
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
        """Every vertex norm is 1 within UNIT_VERTEX_TOL (the closed forms' domain)."""
        norms = np.linalg.norm(self.vertices, axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= UNIT_VERTEX_TOL))


def _facet_table(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keys, id rows, normals and distances of the facets of conv(sym), in key order.

    qhull runs over the 2m rows of ``sym`` and the apex -APEX_REACH * r * e_1
    (id 2m), and every facet is read from one facet of its antipodal pair;
    see the module docstring.  Raises :class:`DegenerateFacetError` when
    qhull fails.
    """
    N, n = sym.shape
    apex = np.zeros((1, n))
    apex[0, 0] = -APEX_REACH * np.abs(sym).sum(axis=1).max()
    # ConvexHull's steps without its total volume and area (module docstring)
    try:
        qh = _Qhull(b"i", np.concatenate([sym, apex]), b"Q0", required_options=b"Qt")
        try:
            qh.triangulate()
            simplices, _, equations, _, _ = qh.get_simplex_facet_array()
        finally:
            qh.close()
    except QhullError as exc:
        raise DegenerateFacetError(f"degenerate: perturbation required ({exc})") from exc

    # Rows without the apex are facets of K.  Each is read with its mirror
    # row, (ids + m) % 2m sorted, and the smaller of the two keys names the
    # pair: a pair qhull returned whole is kept once, from that member.
    kept = simplices[:, 0] != N
    for col in simplices.T[1:]:
        kept &= col != N
    kept = np.flatnonzero(kept)
    ids = np.sort(simplices.take(kept, axis=0), axis=1)
    planes = equations.take(kept, axis=0)
    del simplices, equations, kept
    mirror = np.sort((ids + N // 2) % N, axis=1)
    own_keys, mirror_keys = _row_keys(ids, N), _row_keys(mirror, N)
    pair_keys = np.minimum(own_keys, mirror_keys)
    order = np.lexsort((mirror_keys < own_keys, pair_keys))
    pair_keys = pair_keys.take(order)
    first = np.ones(order.size, dtype=bool)
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=first[1:])
    sel = order[first]
    del pair_keys, order, first

    # Row i < P of the facet table is kept row sel[i] with its own plane, row
    # P + i its mirror with the exact negation of that plane; both halves are
    # then laid out in key order.  qhull's arrays are dropped once read, and
    # each table is filled in place: whole copies alive together set the
    # trial's memory peak.
    P = sel.size
    keys = np.empty(2 * P, dtype=np.uint64)
    own_keys.take(sel, out=keys[:P])
    mirror_keys.take(sel, out=keys[P:])
    order = np.argsort(keys)
    keys = keys.take(order)
    rows = np.empty((2 * P, n), dtype=np.int64)
    rows[:P] = ids.take(sel, axis=0)
    rows[P:] = mirror.take(sel, axis=0)
    del ids, mirror, own_keys, mirror_keys
    ids = rows.take(order, axis=0)
    del rows
    planes = planes.take(sel, axis=0)
    signed = np.empty((2 * P, n))
    signed[:P] = planes[:, :n]
    np.negative(signed[:P], out=signed[P:])
    normals = signed.take(order, axis=0)
    dists = -planes[:, n].take(order % P)
    return keys, ids, normals, dists


def symmetric_hull(cloud: PointCloud) -> FacetComplex:
    """Facet complex of the convex hull of the 2m symmetrized points.

    Requires the cloud to span R^n (rank checked at tolerance 1e-9 on the
    singular values).  Raises :class:`DegenerateFacetError` when qhull
    fails, a facet plane passes through the origin or has zero volume, or
    the facets do not come in antipodal pairs; callers treat that as a
    resample event.  Coplanar points are not checked here;
    :func:`validate_complex` reports them.  Every antipodal pair holds one
    synthesized exact mirror: the mirrored id row, the negated normal and
    the same distance.  Accepts general-position non-unit inputs.
    """
    pts = cloud.points
    n = cloud.n
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    sv = np.linalg.svd(pts, compute_uv=False)
    if sv.size < n or sv[n - 1] <= SPAN_TOL:
        raise DegenerateCloudError("degenerate: points do not span")

    sym = cloud.symmetrized()
    keys, ids, normals, dists = _facet_table(sym)
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
        cross_sums=np.empty(ids.shape[0]),
        cone_second=np.zeros((n, n)),
    )
    fc._antipodes = _antipodal_partners(keys, ids, sym.shape[0])
    try:
        rep, partner = fc.pairs()
    except InvalidComplexError as exc:
        raise DegenerateFacetError(f"degenerate: perturbation required ({exc})") from exc

    # (n-1)-volume through the cone determinant: the simplex conv(0, F) has
    # volume |det[Q_1 ... Q_n]| / n! = dist * |F| / n, so
    # |F| = |det V| / ((n-1)! * dist).  Equivalent to the Gram-determinant
    # form sqrt(det G)/(n-1)! but without squaring the conditioning (the
    # tests pin the two routes together).  Cross sums and cone second
    # moments as in :mod:`isohull.moments`; the antipodal facet has the
    # same volume, cross sum and second-moment matrix.
    volumes, cross, second = fc.volumes, fc.cross_sums, fc.cone_second
    scale = math.factorial(n - 1)
    for blk in facet_blocks(rep.size, n * n):
        r = rep[blk]
        V = sym.take(ids.take(r, axis=0), axis=0)
        volumes[r] = np.abs(np.linalg.det(V)) / (scale * dists[r])
        s = V.sum(axis=1)
        cross[r] = np.einsum("fi,fi->f", s, s) - np.einsum("fki,fki->f", V, V)
        # sum_f w_f (sum_k v v^T + s s^T) as two flat matrix products
        w = dists[r] * volumes[r] / (n * (n + 1.0) * (n + 2.0))
        second += V.reshape(-1, n).T @ (V * w[:, None, None]).reshape(-1, n)
        second += s.T @ (s * w[:, None])
    volumes[partner] = volumes[rep]
    cross[partner] = cross[rep]
    second *= 2.0
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


def _weights(id_bound: int, width: int) -> np.ndarray:
    # Row j <= width, column c: C(N - 1 - c, j), the j-subsets of the ids above c.
    # A strictly increasing row of ``width`` ids reads row j only at c >= width - j,
    # where the entry is at most C(N - 1, width); the entries it never reads are 0.
    if math.comb(id_bound, width) >= 1 << 64:
        raise ValueError(f"rows of {width} ids below {id_bound} have no 64-bit key")
    return np.array(
        [[math.comb(id_bound - 1 - c, j) if c >= width - j else 0 for c in range(id_bound)]
         for j in range(width + 1)],
        dtype=np.uint64,
    )


def _row_keys(rows: np.ndarray, id_bound: int) -> np.ndarray:
    """Lexicographic rank of each strictly increasing row among all rows of its width.

    C(N - 1 - c_i, k - i) rows of width k agree with row c before column i
    and exceed c_i there, so c has rank C(N, k) - 1 - sum_i C(N - 1 - c_i, k - i).
    """
    width = rows.shape[1]
    weights = _weights(id_bound, width)
    keys = np.full(rows.shape[0], math.comb(id_bound, width) - 1, dtype=np.uint64)
    for i in range(width):
        keys -= weights[width - i].take(rows[:, i])
    return keys


def _ridges(vertex_ids: np.ndarray, id_bound: int) -> np.ndarray:
    """The F * n ridge keys; block k keys every facet without its column k.

    A ridge's key, C(N, n-1) - 1 - its rank, is a prefix plus a suffix sum over
    the facet's columns c: sum_{i<k} C(N-1-c_i, n-1-i) + sum_{i>k} C(N-1-c_i, n-i).
    """
    F, n = vertex_ids.shape
    weights = _weights(id_bound, n - 1)
    after = np.zeros((n, F), dtype=np.uint64)
    for k in range(n - 1, 0, -1):
        np.add(after[k], weights[n - k].take(vertex_ids[:, k]), out=after[k - 1])
    head = np.zeros(F, dtype=np.uint64)
    for k in range(1, n):
        head += weights[n - k].take(vertex_ids[:, k - 1])
        after[k] += head
    return after.ravel()


def _all_keys_paired(keys: np.ndarray) -> bool:
    # Fast verdict on "every key appears exactly twice": sorted, the keys
    # match in pairs (an odd count cannot) and neighbouring pairs differ.
    k = np.sort(keys)
    return np.array_equal(k[0::2], k[1::2]) and bool(np.all(k[1:-1:2] != k[2::2]))


def _antipodal_partners(keys: np.ndarray, vertex_ids: np.ndarray, id_bound: int) -> np.ndarray:
    """Index of each facet's antipodal facet, or -1 when it is absent.

    One ``searchsorted`` of the antipodal keys among the facet ``keys``,
    which are sorted as facets are kept in key order.  The antipodal keys
    are searched in ascending order, which keeps the search in cache (at
    (n, m) = (8, 64) a third of the time of a search in facet order).
    """
    anti_keys = _row_keys(np.sort((vertex_ids + id_bound // 2) % id_bound, axis=1), id_bound)
    order = np.argsort(anti_keys)
    anti_keys = anti_keys[order]
    pos = np.minimum(np.searchsorted(keys, anti_keys), keys.size - 1)
    partners = np.empty(keys.size, dtype=np.intp)
    partners[order] = np.where(keys[pos] == anti_keys, pos, -1)
    return partners


def _row_max(x: np.ndarray) -> np.ndarray:
    """Largest entry of each row of a narrow (F, n) array, one column at a time."""
    out = x[:, 0].copy()
    for col in x.T[1:]:
        np.maximum(out, col, out=out)
    return out


def _first(idx: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in idx[:OFFENDING_LIMIT])


def validate_complex(fc: FacetComplex) -> ComplexDiagnostics:
    """Re-check every structural invariant of a facet complex.

    Pure; returns a per-check report with offending facet indices instead
    of raising.  Checks: facet vertices lie on their hyperplane, no facet
    contains an antipodal pair, distances are positive (and at most 1 for
    unit-vertex complexes), facet id rows are strictly increasing and every
    ridge is shared by exactly two facets, vertex rows and facets come in
    exact antipodal pairs (facets with negated normals), all points lie on
    the inner side of every facet, no facet's hyperplane carries more than
    n points (a coplanar, non-simplicial facet that qhull triangulated),
    and the cone decomposition has positive total measure.

    The point-side checks (``vertex_on_plane``, ``containment`` and
    ``simplicial``) sweep a facet F once for itself and its partner -F
    from :meth:`FacetComplex.antipodes` when the pair is an exact mirror:
    mutual and distinct, both id rows strictly increasing, n_-F = -n_F and
    d_-F = d_F exactly.  The id rows of -F are those of F mirrored, and
    vertex row i + m is the exact negation of row i (checked by
    ``central_symmetry``), so -F's figures are F's.  Every other facet is
    swept on its own.

    On a complex from :func:`symmetric_hull` one facet of every pair is a
    synthesized exact mirror of the other, so every pair is swept once.
    Its certificate of the boundary of K is then the sweep of every
    representative against all 2m points, ridge closure and the exact
    negation of vertex rows, with the pairing found by
    :meth:`FacetComplex.antipodes` from the id rows alone.
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
    # swept facet normals with the m base points.  Vertex id i is base point
    # i % m, negated for i >= m, so the facet's own vertices read their
    # plane residuals from G.  A point and its antipode have slacks G - d
    # and -G - d, so the larger is |G| - d, and their distances to the
    # plane are ||G| - d| and |G| + d; these give each facet's largest
    # slack and the number of points on its hyperplane.
    #
    # One facet of each exactly mirrored pair is swept for both (see the
    # docstring).  A partner row is the exact antipodal id row when the two
    # rows are strictly increasing, since keys are one-to-one on such rows.
    P = fc.vertices[:m]
    ids = fc.vertex_ids
    partner = fc.antipodes()
    own = np.arange(F)
    # On contiguous id columns: reductions along rows of n entries cost
    # more.  Ids i and i' below 2m name one base point when |i - i'| is 0 or m.
    unsorted = np.zeros(F, dtype=bool)
    holds_antipodes = np.zeros(F, dtype=bool)
    cols = ids.T.copy()
    gap = np.empty(F, dtype=cols.dtype)
    for k in range(1, n):
        unsorted |= cols[k] <= cols[k - 1]
        for j in range(k):
            np.abs(np.subtract(cols[k], cols[j], out=gap), out=gap)
            holds_antipodes |= gap == 0
            holds_antipodes |= gap == m
    del cols, gap
    flip = fc.normals.take(partner, axis=0)
    flip += fc.normals
    flip = _row_max(np.abs(flip, out=flip))
    mirrored = (partner >= 0) & (partner != own) & (partner[partner] == own)
    mirrored &= ~unsorted & ~unsorted[partner]
    mirrored &= (flip == 0.0) & (fc.dists == fc.dists.take(partner))
    rep = np.flatnonzero(mirrored & (own < partner))
    mate = partner[rep]
    swept = np.ones(F, dtype=bool)
    swept[mate] = False
    swept = np.flatnonzero(swept)

    residual = np.empty(F)
    viol = np.empty(F)
    on_plane = np.empty(F, dtype=np.int64)
    for blk in facet_blocks(swept.size, m):
        f = swept[blk]
        G = fc.normals.take(f, axis=0) @ P.T
        d = fc.dists[f, None]
        fid = ids.take(f, axis=0)
        mine = G.take(fid % m + m * np.arange(f.size)[:, None])
        mine = np.where(fid < m, mine, -mine) - d
        residual[f] = np.abs(mine, out=mine).max(axis=1)
        A = np.abs(G, out=G)
        count = np.zeros(f.size, dtype=np.int64)
        if np.any(d <= COPLANARITY_TOL):  # else |G| + d > tol everywhere
            count += np.count_nonzero(A + d <= COPLANARITY_TOL, axis=1)
        A -= d
        viol[f] = A.max(axis=1)
        on_plane[f] = count + np.count_nonzero(np.abs(A, out=A) <= COPLANARITY_TOL, axis=1)
    for figure in (residual, viol, on_plane):
        figure[mate] = figure[rep]

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
    # two facets; the count is of offending ridge slots.  Keys rank only
    # strictly increasing id rows, so every ridge slot of another row offends.
    ridges = _ridges(fc.vertex_ids, two_m)
    if not unsorted.any() and _all_keys_paired(ridges):
        bad_ridges = np.empty(0, dtype=np.int64)
    else:
        _, inverse, counts = np.unique(ridges, return_inverse=True, return_counts=True)
        bad = counts[inverse] != 2
        bad.reshape(n, F)[:, unsorted] = True
        bad_ridges = np.flatnonzero(bad)
    check(
        "ridge_shared_twice",
        np.unique(bad_ridges % F),
        f"{bad_ridges.size} ridge slots unpaired or in an unsorted row" if bad_ridges.size else "",
        bad_ridges.size,
    )

    # Row i + m must be the exact negation of row i (the sweep visits only
    # the first m rows), and facets must pair up antipodally with negated
    # normals.  From symmetric_hull every pair holds one synthesized mirror
    # (see the docstring), so its normals agree exactly.
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
