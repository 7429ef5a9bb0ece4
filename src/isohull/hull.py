"""Boundary facet complex of the symmetric hull conv{+-P_1, ..., +-P_m}.

Construction runs qhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 22(4),
1996) without premerging (qhull option ``Q0``, plus ``Qt`` so that every
facet comes back as a simplex).  Random sphere points are in general
position with probability one, so there is nothing to merge, and on the
default campaign ``Q0`` gives the same facet sets as qhull's defaults at a
fraction of the cost.

K is centrally symmetric, so its facets come in antipodal pairs F, -F, and
qhull builds only about half of them.  Its input is the 2m points plus one
apex a = -R r d, with r the largest l1 norm of a point, R = ``APEX_REACH``
and d a unit axis; qhull returns the facets of conv(K, a).  A returned row
without the apex id 2m spans a supporting hyperplane of K through n of its
vertices, so it is a facet of K.  A facet of K with outward normal u and
distance d is a facet of conv(K, a) exactly when <u, a> < d, and since
<u, a> + <-u, a> = 0 < 2d at least one facet of every pair survives, with
a at least d inside its plane.  The complex keeps one row per pair: the
member of smaller key.  The other member is implied: ids (ids + m) mod
2m, the exact negated normal and the same distance.  qhull only names the
facets; the planes come from the id rows (:func:`symmetric_hull`), so
records do not depend on the apex, the insertion order or qhull's build.

The rows qhull returns beyond those facets are the cones from a over the
silhouette of K seen from a, and none is a facet of K; how many there are
depends on the direction d.  d is a local maximiser of the fourth moment
sum_i <P_i, d>^4 of the m base points, reached by ``_AXIS_STEPS`` = 10
power steps d <- sum_i <P_i, d>^3 P_i / norm from e_1, in fixed-order
einsums and elementwise operations only (no BLAS, no convergence test), so
its bits depend on neither the OpenBLAS core nor a tolerance.  Along it
qhull returns fewer rows than along e_1 or the principal and l1 axes, and
at (8, 64) about 0.71 F rows in place of F.  Along d the count is flat
beyond R = 100, and a farther apex gains nothing, since qhull's roundoff
grows with the largest coordinate.

qhull builds K top-down along d.  The hull starts from the apex and the n
points highest along d, and the other 2m - n points go in by decreasing
<p, d> through qhull's incremental mode (``add_points``; scipy adds qhull
option ``Q11`` there).  A one-shot build picks its own insertion order,
the furthest outside point of a facet first, so the order of its input
changes nothing; ``add_points`` follows this one.  A point added far from
the apex sees only a small region of the hull built so far, so qhull
makes fewer transient facets on the way, which lowers the memory peak;
the hull it returns is the same.  The heights are einsums, not a BLAS
product.  qhull's input row 0 is the apex and row i the i-th highest
point; only the rows kept after dropping those through the apex are
mapped back to point ids.

qhull is called through scipy's private ``scipy.spatial._qhull._Qhull``,
with the steps of ``ConvexHull(points, incremental=True)`` and its
``add_points`` except the total volume and area (qhull's ``qh_getarea``
over every facet, never read here) and the copy of the points.
``TestQhullCall`` in ``tests/test_hull.py`` pins the call: the implied
facets equal ``ConvexHull``'s without the apex, its planes agree with the
solved ones within 1e-12, the input is in the order above,
``volume_area`` is never called and ``close`` always is, so a scipy
release that changes the private entry point fails there.

Central symmetry, ridge pairing, containment, simpliciality and thin
facets are then judged post hoc by :func:`validate_complex` alone, which
is independent of the construction path.  A coplanarity (more than n
points on one facet's hyperplane), or a facet whose distance or
(n-1)-volume n * cone / dist is at or below ``DISTANCE_FLOOR`` or
``FACET_VOLUME_FLOOR``, fails validation, so the caller can resample with
a fresh derived seed instead of perturbing coordinates.
:func:`symmetric_hull` raises only for what it cannot compute: a qhull
failure, a cloud that does not span, or a singular V.

Each facet is identified by one uint64 key, the lexicographic rank of its
sorted vertex ids among all n-subsets of the 2m ids (combinatorial number
system; Knuth, TAOCP 4A 7.2.1.3), exact while C(2m, n) < 2^64; every ridge
key is summed from the same binomial weights without forming the ridges.
The complex holds the m points, and vertex id i + m names the negation of
point i, so the antipode of every vertex is exact by construction; the
plane sweep visits only the m points and each row once for itself and
its mirror.

The two facets of a pair have equal distance and cone moments, so every
per-facet array holds P = F/2 rows.  One pass over the rows, in blocks of
about ``_BLOCK_FLOATS`` float64s per temporary, gathers each row's
vertices V once and gives its plane, its cone volume |det V|/n!, its cross
sum and its cone second moment (read by :mod:`isohull.moments`, where
|K| = 2 sum cones), so no (F, n, n) gather is ever held and no BLAS
product is large enough to wake OpenBLAS threads.

:class:`InvalidComplexError` is a structural fault; a covariance that is
not positive-definite is ``NotSPDError`` from the one SPD gate,
:func:`isohull.isotropy.isotropy_constant`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.spatial import QhullError
from scipy.spatial._qhull import _Qhull

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
# A facet is degenerate at or below either floor, of its distance or of its
# (n-1)-volume n * cone / dist; only validate_complex reads them.
DISTANCE_FLOOR = 1e-12
FACET_VOLUME_FLOOR = 1e-14
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

# Power steps from e_1 towards a local maximiser of sum_i <P_i, d>^4, the
# apex axis (module docstring).  Fixed, so the axis bits are too.
_AXIS_STEPS = 10


def facet_blocks(count: int, width: int) -> Iterator[slice]:
    """Slices covering ``count`` rows (facets or samples), each with ``width`` floats per row."""
    step = max(1, _BLOCK_FLOATS // width)
    for lo in range(0, count, step):
        yield slice(lo, lo + step)


class DegenerateCloudError(ValueError):
    """The input points do not span R^n."""


class DegenerateFacetError(RuntimeError):
    """qhull failed or a facet's vertices are linearly dependent; resample the trial."""


def _degenerate(reason) -> DegenerateFacetError:
    return DegenerateFacetError(f"degenerate: perturbation required ({reason})")


class InvalidComplexError(RuntimeError):
    """A facet complex violates a structural invariant."""


@dataclass(eq=False)
class FacetComplex:
    """Simplicial boundary of a centrally symmetric polytope, one row per antipodal pair.

    ``points`` holds the m generators P_i of K = conv{+-P_i}; vertex id i
    names P_i for i < m and -P_(i-m) otherwise (the rows of ``vertices``).
    Row i of ``vertex_ids``, ``normals``, ``dists``, ``cones`` and
    ``cross_sums`` is the facet F of its pair F, -F with the smaller key,
    and rows are in key order; its plane <x, a> = 1 solves V a = 1 for its
    vertices V, and its cone conv(0, F) has volume |det V| / n!.  The facet
    -F is implied: its id row is sort((ids + m) mod 2m), its normal is
    -normals[i], and its distance, cone and cross sum are row i's.
    ``facet_count`` counts both members of every pair, and ``cone_second``
    sums over all of them.
    Instances are immutable by convention and safe to share across threads.
    """

    points: np.ndarray  # (m, n)
    vertex_ids: np.ndarray  # (P, n) int64, rows sorted
    normals: np.ndarray  # (P, n) unit outward
    dists: np.ndarray  # (P,) > 0
    cones: np.ndarray  # (P,) volume of conv(0, F)
    cross_sums: np.ndarray  # (P,) sum over i != j of <Q_i, Q_j>
    cone_second: np.ndarray  # (n, n) sum over all 2P facets of int_conv(0,F) x x^T

    @property
    def n(self) -> int:
        return int(self.points.shape[1])

    @property
    def facet_count(self) -> int:
        return 2 * int(self.vertex_ids.shape[0])

    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def vertices(self) -> np.ndarray:
        """The 2m-row vertex table the ids index: the points, then their negations."""
        return np.vstack([self.points, -self.points])

    def is_unit(self) -> bool:
        """Every vertex norm is 1 within UNIT_VERTEX_TOL (the closed forms' domain)."""
        norms = np.linalg.norm(self.points, axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= UNIT_VERTEX_TOL))


def _mirror_rows(vertex_ids: np.ndarray, id_bound: int) -> np.ndarray:
    """The sorted id row of each facet's antipode: (ids + m) mod 2m, sorted."""
    mirror = vertex_ids + id_bound // 2
    np.subtract(mirror, id_bound, out=mirror, where=mirror >= id_bound)
    mirror.sort(axis=1)
    return mirror


def _apex_axis(base: np.ndarray) -> np.ndarray:
    """Unit d after ``_AXIS_STEPS`` steps d <- sum_i p_i^3 P_i / norm, p = base d, from e_1.

    Each step raises sum_i <P_i, d>^4 (its gradient is 4 sum_i p_i^3 P_i,
    and <sum_i p_i^3 P_i, d> = sum_i p_i^4 > 0 on a spanning cloud).  Only
    fixed-order einsums and elementwise operations run, so the bits of d
    depend on no BLAS core and no tolerance.  The base is first scaled
    exactly, by a power of two, to a largest entry in [1/2, 1), so d is the
    same at every scale and the cubes cannot overflow.
    """
    base = np.ldexp(base, -np.frexp(np.abs(base).max())[1])
    cols = np.ascontiguousarray(base.T)  # both products then run along rows
    d = np.zeros(base.shape[1])
    d[0] = 1.0
    for _ in range(_AXIS_STEPS):
        p = np.einsum("ij,j->i", base, d)
        d = np.einsum("ji,i->j", cols, p * p * p)
        d /= np.sqrt(np.einsum("j,j->", d, d))
    return d


def _facet_table(sym: np.ndarray) -> np.ndarray:
    """Id rows of one facet per antipodal pair of conv(sym), in key order.

    qhull builds the hull of the 2m rows of ``sym`` and the apex
    -APEX_REACH * r * d (id 2m), d the fourth-moment axis of the base rows
    ``sym[:m]``, top-down along d, and each pair is named by a facet of it
    that qhull returned; see the module docstring.  Each row is the member
    of its pair with the smaller key.  qhull's planes are not read.  Raises
    :class:`DegenerateFacetError` when qhull fails.
    """
    N, n = sym.shape
    d = _apex_axis(sym[: N // 2])
    apex = -APEX_REACH * np.abs(sym).sum(axis=1).max() * d
    # Top-down along d: the apex and the n points highest along d start the
    # hull, and the rest go in by decreasing <p, d> (module docstring).
    # Input row 0 is the apex (id N) and row i is point descending[i - 1].
    descending = np.argsort(-np.einsum("ij,j->i", sym, d), kind="stable")
    lookup = np.concatenate([[N], descending]).astype(np.int32)
    # ConvexHull's steps without its total volume and area (module docstring)
    try:
        qh = _Qhull(
            b"i",
            np.vstack([apex, sym.take(descending[:n], axis=0)]),
            b"Q0",
            required_options=b"Qt",
            incremental=True,
        )
        try:
            qh.add_points(sym.take(descending[n:], axis=0))
            qh.triangulate()
            simplices = qh.get_simplex_facet_array()[0]
        finally:
            qh.close()
    except QhullError as exc:
        raise _degenerate(exc) from exc

    # Rows without the apex are facets of K.  Each is read with its mirror
    # row, and the smaller of the two keys names the pair: a pair qhull
    # returned whole is kept once.  qhull's memory and the arrays read from
    # it set a warm process's peak at (8, 64), so only the kept rows are
    # mapped back to point ids, in place and in qhull's own int32.
    kept = simplices[:, 0] != 0
    for col in simplices.T[1:]:
        kept &= col != 0
    ids = simplices.take(np.flatnonzero(kept), axis=0)
    del simplices, kept
    lookup.take(ids, out=ids)
    ids.sort(axis=1)
    mirror = _mirror_rows(ids, N)
    own_keys, mirror_keys = _row_keys(ids, N), _row_keys(mirror, N)
    flip = mirror_keys < own_keys
    _, first = np.unique(np.minimum(own_keys, mirror_keys), return_index=True)
    return np.where(flip[:, None], mirror, ids).take(first, axis=0).astype(np.int64)


def symmetric_hull(points: np.typing.ArrayLike) -> FacetComplex:
    """Facet complex of K = conv{+-P_1, ..., +-P_m}, the P_i the rows of ``points``.

    ``points`` is an (m, n) array or nested list of finite reals (anything
    else is a ValueError) whose rows span R^n (rank checked at tolerance
    1e-9 on the singular values).  Raises :class:`DegenerateFacetError`
    when qhull fails or a facet's vertices are linearly dependent (its
    plane passes through the origin); callers treat that as a resample
    event.  Thin facets and coplanar points are not judged here;
    :func:`validate_complex` reports them.  The complex holds one row per
    antipodal pair, and the other member of each pair is its exact mirror
    (see :class:`FacetComplex`).  Accepts general-position non-unit inputs.
    """
    if np.iscomplexobj(points):
        raise ValueError("points must be real")
    pts = np.array(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array of shape (m, n)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    n = pts.shape[1]
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    sv = np.linalg.svd(pts, compute_uv=False)
    if sv.size < n or sv[n - 1] <= SPAN_TOL:
        raise DegenerateCloudError("degenerate: points do not span")

    # Each row's plane <x, a> = 1 through its vertices V solves V a = 1, so
    # its distance is 1/|a| and a points outward (the origin is inside).
    # The cone conv(0, F) has volume |det V| / n!.  Cross sums and cone
    # second moments as in :mod:`isohull.moments`; the mirror has the same
    # cone, cross sum and second-moment matrix.
    sym = np.vstack([pts, -pts])
    ids = _facet_table(sym)
    P = ids.shape[0]
    normals, dists = np.empty((P, n)), np.empty(P)
    cones, cross, second = np.empty(P), np.empty(P), np.zeros((n, n))
    scale = math.factorial(n)
    for blk in facet_blocks(P, n * n):
        V = sym.take(ids[blk], axis=0)
        try:
            a = np.linalg.solve(V, np.ones(n))
        except np.linalg.LinAlgError as exc:
            raise _degenerate("facet plane through origin") from exc
        dists[blk] = 1.0 / np.sqrt(np.einsum("fi,fi->f", a, a))
        np.multiply(a, dists[blk, None], out=normals[blk])
        cones[blk] = np.abs(np.linalg.det(V)) / scale
        s = V.sum(axis=1)
        cross[blk] = np.einsum("fi,fi->f", s, s) - np.einsum("fki,fki->f", V, V)
        # sum_f w_f (sum_k v v^T + s s^T) as two flat matrix products
        w = cones[blk] / ((n + 1.0) * (n + 2.0))
        second += V.reshape(-1, n).T @ (V * w[:, None, None]).reshape(-1, n)
        second += s.T @ (s * w[:, None])
    second *= 2.0
    return FacetComplex(pts, ids, normals, dists, cones, cross, second)


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


@functools.lru_cache(maxsize=64)
def _weights(id_bound: int, width: int) -> np.ndarray:
    # Row j <= width, column c: C(N - 1 - c, j), the j-subsets of the ids above c.
    # A strictly increasing row of ``width`` ids reads row j only at c >= width - j,
    # where the entry is at most C(N - 1, width); the entries it never reads are 0.
    # Cached and read-only: every caller shares one table per (id_bound, width).
    if math.comb(id_bound, width) >= 1 << 64:
        raise ValueError(f"rows of {width} ids below {id_bound} have no 64-bit key")
    table = np.array(
        [[math.comb(id_bound - 1 - c, j) if c >= width - j else 0 for c in range(id_bound)]
         for j in range(width + 1)],
        dtype=np.uint64,
    )
    table.flags.writeable = False
    return table


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


def _ridges(vertex_ids: np.ndarray, id_bound: int, out: np.ndarray) -> np.ndarray:
    """The F * n ridge keys into ``out``, returned; row k keys every facet without its column k.

    A ridge's key, C(N, n-1) - 1 - its rank, is a prefix plus a suffix sum over
    the facet's columns c: sum_{i<k} C(N-1-c_i, n-1-i) + sum_{i>k} C(N-1-c_i, n-i).
    ``out`` is an (n, F) uint64 array whose rows are each contiguous.
    """
    F, n = vertex_ids.shape
    weights = _weights(id_bound, n - 1)
    out[n - 1] = 0
    for k in range(n - 1, 0, -1):
        np.add(out[k], weights[n - k].take(vertex_ids[:, k]), out=out[k - 1])
    head = np.zeros(F, dtype=np.uint64)
    for k in range(1, n):
        head += weights[n - k].take(vertex_ids[:, k - 1])
        out[k] += head
    return out


def _all_keys_paired(keys: np.ndarray) -> bool:
    # Fast verdict on "every key appears exactly twice": sorted in place, the
    # keys match in pairs (an odd count cannot) and neighbouring pairs differ.
    keys.sort()
    return np.array_equal(keys[0::2], keys[1::2]) and bool(np.all(keys[1:-1:2] != keys[2::2]))


def validate_complex(fc: FacetComplex) -> ComplexDiagnostics:
    """Re-check every structural invariant of the implied complex R u -R.

    R is the complex's rows and -R their mirrors (see :class:`FacetComplex`).
    Pure; returns a per-check report with offending row indices of R
    instead of raising.  Checks: facet vertices lie on their hyperplane, no
    facet contains an antipodal pair, distances are above DISTANCE_FLOOR
    (and at most 1 for unit-vertex complexes), id rows are strictly
    increasing and every ridge of R u -R is shared by exactly two of its
    facets, the 2P facets of R u -R are distinct (``central_symmetry``),
    all points lie on the inner side of every facet, no facet's hyperplane
    carries more than n points (a coplanar, non-simplicial facet that qhull
    triangulated), and every facet's (n-1)-volume n * cone / dist is above
    FACET_VOLUME_FLOOR (``positive_measure``).  A NaN residual, slack,
    distance or cone fails its check.  The complex stores only the m
    points, so every mirror vertex is an exact negation by construction and
    no check compares vertex rows.

    The point-side checks (``vertex_on_plane``, ``containment`` and
    ``simplicial``) sweep each row of R once, against the m points.  The
    mirror -F has the vertices of F negated (vertex id i + m names -P_i),
    the negated normal and the same distance, so its figures are F's.

    The certificate of the boundary of K is then the sweep of R against all
    2m points, ridge closure of R u -R and the distinctness of its facets,
    all read from the id rows, normals and distances alone.

    Beyond a few arrays of P or 2P entries and one block's temporaries, a
    call holds one (n, 2P) uint64 table, the ridge keys of R u -R; at
    (8, 64) its extra traced peak is about 1.3 times that table.
    """
    ids = fc.vertex_ids
    P, n = ids.shape
    m = fc.num_points
    two_m = 2 * m

    # On contiguous id columns: reductions along rows of n entries cost
    # more.  Ids i and i' below 2m name one base point when |i - i'| is 0 or m.
    unsorted = np.zeros(P, dtype=bool)
    holds_antipodes = np.zeros(P, dtype=bool)
    cols = ids.T.copy()
    gap = np.empty(P, dtype=cols.dtype)
    for k in range(1, n):
        unsorted |= cols[k] <= cols[k - 1]
        for j in range(k):
            np.abs(np.subtract(cols[k], cols[j], out=gap), out=gap)
            holds_antipodes |= gap == 0
            holds_antipodes |= gap == m
    del cols, gap

    # The point-side figures are reduced to their reports before the ridge
    # table is made, so none is held with it.
    residual, viol, on_plane = _plane_sweep(fc)
    vertex_on_plane = _result(
        "vertex_on_plane",
        np.flatnonzero(~(residual <= CONTAINMENT_TOL)),
        f"max residual {residual.max():.3e}" if P else "",
    )
    containment = _result(
        "containment",
        np.flatnonzero(~(viol <= CONTAINMENT_TOL)),
        f"max slack {viol.max():.3e}" if P else "",
    )
    simplicial = _result(
        "simplicial",
        np.flatnonzero(on_plane > n),
        f"up to {on_plane.max()} points on one facet plane" if P else "",
    )
    del residual, viol, on_plane

    dist_ok = fc.dists > DISTANCE_FLOOR
    if fc.is_unit():
        dist_ok &= fc.dists <= 1.0 + CONTAINMENT_TOL

    # The id rows of R u -R: R's, then their mirrors'.  Every (n-1)-subset
    # of a facet is a ridge and must appear in exactly two facets; the
    # count is of offending ridge slots.  Keys rank only strictly
    # increasing id rows, so every ridge slot of another row offends.  One
    # (n, 2P) table holds the ridge keys of R (columns :P) and of -R, whose
    # rows are made and keyed a block at a time, so no table of them is
    # held; the fast verdict sorts it in place, and a failure keys it again.
    keys = np.empty(2 * P, dtype=np.uint64)
    keys[:P] = _row_keys(ids, two_m)
    table = np.empty((n, 2 * P), dtype=np.uint64)

    def ridge_table() -> np.ndarray:
        _ridges(ids, two_m, out=table[:, :P])
        for blk in facet_blocks(P, n):
            mirror = _mirror_rows(ids[blk], two_m)
            _ridges(mirror, two_m, out=table[:, P:][:, blk])
            keys[P:][blk] = _row_keys(mirror, two_m)
        return table.reshape(-1)

    if unsorted.any() or not _all_keys_paired(ridge_table()):
        _, inverse, counts = np.unique(ridge_table(), return_inverse=True, return_counts=True)
        bad = counts[inverse] != 2
        bad.reshape(n, 2 * P)[:, :P][:, unsorted] = True
        bad_ridges = np.flatnonzero(bad)
    else:
        bad_ridges = np.empty(0, dtype=np.int64)
    del table

    # The 2P facets of R u -R must be distinct: a row listed twice, or a
    # row whose mirror is also a row, repeats a key.
    s = np.sort(keys)
    if np.all(s[1:] != s[:-1]):
        repeated = np.empty(0, dtype=np.int64)
    else:
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        twice = counts[inverse] > 1
        repeated = np.flatnonzero(twice[:P] | twice[P:])

    # n * cone / dist > floor without dividing; a distance at or below its
    # floor fails distance_in_range
    thick = n * fc.cones > FACET_VOLUME_FLOOR * fc.dists
    volume = 2.0 * float(np.sum(fc.cones))
    return ComplexDiagnostics(
        (
            vertex_on_plane,
            _result("no_antipodal_pair", np.flatnonzero(holds_antipodes)),
            _result("distance_in_range", np.flatnonzero(~dist_ok)),
            _result(
                "ridge_shared_twice",
                np.unique(bad_ridges % P),
                f"{bad_ridges.size} ridge slots unpaired or in an unsorted row"
                if bad_ridges.size
                else "",
                bad_ridges.size,
            ),
            _result("central_symmetry", repeated),
            containment,
            simplicial,
            CheckResult(
                "positive_measure",
                P > 0 and bool(np.all(thick)) and 0.0 < volume < math.inf,
                detail=f"volume {volume:.6e}",
            ),
        )
    )


def _result(
    name: str, bad: np.ndarray, detail: str = "", n_offending: int | None = None
) -> CheckResult:
    """A check that fails at the row indices ``bad``; ``n_offending`` defaults to their count."""
    count = bad.size if n_offending is None else n_offending
    first = tuple(int(i) for i in bad[:OFFENDING_LIMIT])
    return CheckResult(name, count == 0, first, int(count), detail)


def _plane_sweep(fc: FacetComplex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's largest vertex residual, largest slack and points on its hyperplane.

    One sweep over blocks of the row-major inner products G = N B^T of the
    normals with the m points B.  Vertex id i is point i % m, negated for
    i >= m, so the row's own vertices read their plane residuals from G.
    A point and its antipode have slacks G - d and -G - d, so the larger
    is |G| - d, and their distances to the plane are ||G| - d| and |G| + d;
    these give each row's largest slack and the number of points on its
    hyperplane.
    """
    ids = fc.vertex_ids
    P = ids.shape[0]
    m = fc.num_points
    base = fc.points
    residual = np.empty(P)
    viol = np.empty(P)
    on_plane = np.empty(P, dtype=np.int64)
    for blk in facet_blocks(P, m):
        G = fc.normals[blk] @ base.T
        d = fc.dists[blk, None]
        fid = ids[blk]
        mine = G.take(fid % m + m * np.arange(fid.shape[0])[:, None])
        mine = np.where(fid < m, mine, -mine) - d
        residual[blk] = np.abs(mine, out=mine).max(axis=1)
        A = np.abs(G, out=G)
        count = np.zeros(fid.shape[0], dtype=np.int64)
        if np.any(d <= COPLANARITY_TOL):  # else |G| + d > tol everywhere
            count += np.count_nonzero(A + d <= COPLANARITY_TOL, axis=1)
        A -= d
        viol[blk] = A.max(axis=1)
        on_plane[blk] = count + np.count_nonzero(np.abs(A, out=A) <= COPLANARITY_TOL, axis=1)
    return residual, viol, on_plane


def inradius(fc: FacetComplex) -> float:
    """Largest r with r * B_2^n contained in the polytope: min facet distance."""
    if fc.facet_count == 0:
        raise InvalidComplexError("empty facet list")
    return float(fc.dists.min())


def dump_off_like(fc: FacetComplex) -> str:
    """Plain-text dump: header 'n m facet_count', coordinate rows, facet rows.

    Coordinates are the 2m rows of ``fc.vertices`` with 17 significant digits;
    facet rows list vertex ids into that table: the complex's rows, then
    their mirror rows.
    """
    m = fc.num_points
    lines = [f"{fc.n} {m} {fc.facet_count}"]
    for row in fc.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    for rows in (fc.vertex_ids, _mirror_rows(fc.vertex_ids, 2 * m)):
        for row in rows:
            lines.append(" ".join(str(int(i)) for i in row))
    return "\n".join(lines) + "\n"
