"""Invariance (metamorphic) tests of the hull and moment pipeline.

A per-point sign flip or a permutation of the points leaves the body
K = conv{+-P_1, ..., +-P_m} unchanged, and an orthogonal map moves it
rigidly; the facet count, inradius, volume and isotropy constant must not
change, and the covariance must turn with the body.  A sign flip also
changes which facet of an antipodal pair is the representative that the
facet pass computes on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isohull.hull import inradius, symmetric_hull
from isohull.isotropy import isotropy_constant
from isohull.moments import polytope_covariance, polytope_volume
from isohull.sphere_stats import PointCloud, RngStream, sample_symmetric_cloud

REL = 1e-10
# the same examples on every run, so a failure reproduces
EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def clouds(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(n + 1, 3 * n))
    return sample_symmetric_cloud(n, m, draw(st.integers(0, 2**32 - 1)))


def observe(cloud: PointCloud) -> dict:
    fc = symmetric_hull(cloud)
    volume = polytope_volume(fc)
    cov = polytope_covariance(fc)
    return {
        "facet_count": fc.facet_count,
        "inradius": inradius(fc),
        "volume": volume,
        "l_k": isotropy_constant(volume, cov).l_k,
        "covariance": cov,
    }


def assert_same_body(a: dict, b: dict, rotation: np.ndarray | None = None) -> None:
    """b is a's body, moved by ``rotation`` (or left in place)."""
    assert a["facet_count"] == b["facet_count"]
    for key in ("inradius", "volume", "l_k"):
        assert b[key] == pytest.approx(a[key], rel=REL), key
    cov = a["covariance"] if rotation is None else rotation @ a["covariance"] @ rotation.T
    assert np.abs(b["covariance"] - cov).max() <= REL * np.abs(cov).max()


@EXAMPLES
@given(cloud=clouds(), data=st.data())
def test_sign_flip_invariance(cloud, data):
    flips = data.draw(st.lists(st.booleans(), min_size=cloud.m, max_size=cloud.m))
    signs = np.where(flips, -1.0, 1.0)[:, None]
    base = observe(cloud)
    flipped = observe(PointCloud(signs * cloud.points))
    assert_same_body(base, flipped)


@EXAMPLES
@given(cloud=clouds(), data=st.data())
def test_permutation_invariance(cloud, data):
    perm = data.draw(st.permutations(range(cloud.m)))
    base = observe(cloud)
    permuted = observe(PointCloud(cloud.points[list(perm)]))
    assert_same_body(base, permuted)


@EXAMPLES
@given(cloud=clouds(), seed=st.integers(0, 2**32 - 1))
def test_orthogonal_map_invariance(cloud, seed):
    q, _ = np.linalg.qr(np.asarray(RngStream(seed).gaussian((cloud.n, cloud.n))))
    base = observe(cloud)
    mapped = observe(PointCloud(cloud.points @ q.T))
    assert_same_body(base, mapped, rotation=q)


def test_full_flip_swaps_every_representative():
    # negating every point swaps rows i and i + m: the facet id rows are the
    # same, but each names the antipode of the facet it named before, so the
    # pass computes on the other facet of every pair
    cloud = sample_symmetric_cloud(5, 14, 17)
    fc = symmetric_hull(cloud)
    flipped = symmetric_hull(PointCloud(-cloud.points))
    assert np.array_equal(fc.vertex_ids, flipped.vertex_ids)
    rep, _ = fc.pairs()
    assert np.array_equal(flipped.pairs()[0], rep)
    assert np.array_equal(flipped.vertices, -fc.vertices)
    assert polytope_volume(flipped) == pytest.approx(polytope_volume(fc), rel=REL)
