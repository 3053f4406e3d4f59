import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from emscan import GridIndex, NonPositiveRadius, ScanMatchError, brute_force_neighbors
from conftest import random_cloud


def test_empty_index_returns_nothing():
    index = GridIndex([], 1.0)
    assert len(index) == 0
    assert index.query_radius((0.0, 0.0)).size == 0


def test_singleton_occupies_one_cell():
    index = GridIndex([(0.0, 0.0)], 1.0)
    assert len(index) == 1
    assert index.occupied_cells == 1
    np.testing.assert_array_equal(index.query_radius((0.0, 0.0)), [0])


def test_rejects_non_positive_radius():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(NonPositiveRadius):
            GridIndex([(0.0, 0.0)], bad)


def test_all_points_indexed_once(rng):
    pts = rng.uniform(0, 10, (1000, 2))
    index = GridIndex(pts, 0.5)
    total = sum(index.query_radius(p).size >= 1 for p in pts)
    assert total == 1000  # every point finds at least itself
    # occupancy over all cells sums to the input size
    assert sum(len(v) for v in index._cells.values()) == 1000


def test_far_query_is_empty(rng):
    pts = random_cloud(rng, 50)
    index = GridIndex(pts, 0.5)
    assert index.query_radius((100.0, 100.0)).size == 0


def test_self_distance_zero_included():
    index = GridIndex([(1.25, -0.75)], 0.5)
    assert 0 in index.query_radius((1.25, -0.75))


def test_strict_inequality_at_radius():
    index = GridIndex([(1.0, 0.0)], 1.0)
    assert index.query_radius((0.0, 0.0)).size == 0       # distance == W excluded
    assert index.query_radius((0.0001, 0.0)).size == 1


def test_duplicates_all_returned():
    index = GridIndex([(0.5, 0.5)] * 4, 1.0)
    assert sorted(index.query_radius((0.5, 0.5)).tolist()) == [0, 1, 2, 3]


def test_matches_brute_force_on_random_instances(rng):
    for _ in range(20):
        n = int(rng.integers(1, 500))
        w = float(rng.uniform(0.1, 2.0))
        pts = rng.uniform(-5, 5, (n, 2))
        index = GridIndex(pts, w)
        for _ in range(50):
            q = rng.uniform(-6, 6, 2)
            fast = set(index.query_radius(q).tolist())
            slow = set(brute_force_neighbors(pts, q, w).tolist())
            assert fast == slow


def test_matches_brute_force_on_cell_boundaries():
    w = 0.5
    # points and queries sitting exactly on multiples of the cell size
    grid_coords = np.array([(i * w, j * w) for i in range(-3, 4) for j in range(-3, 4)])
    index = GridIndex(grid_coords, w)
    for q in grid_coords:
        fast = set(index.query_radius(q).tolist())
        slow = set(brute_force_neighbors(grid_coords, q, w).tolist())
        assert fast == slow
        assert fast == {int(np.nonzero((grid_coords == q).all(axis=1))[0][0])}


def test_matches_scipy_kdtree(rng):
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    pts = rng.uniform(-4, 4, (400, 2))
    w = 0.7
    index = GridIndex(pts, w)
    tree = cKDTree(pts)
    for _ in range(200):
        q = rng.uniform(-4, 4, 2)
        ours = set(index.query_radius(q).tolist())
        # KDTree treats the boundary as inclusive; continuous data never
        # lands exactly on it, so the sets agree.
        theirs = set(tree.query_ball_point(q, w))
        assert ours == theirs


def test_deterministic_rebuild(rng):
    pts = rng.uniform(-2, 2, (300, 2))
    queries = rng.uniform(-2, 2, (50, 2))
    a = GridIndex(pts, 0.4)
    b = GridIndex(pts, 0.4)
    for q in queries:
        np.testing.assert_array_equal(a.query_radius(q), b.query_radius(q))


def test_negative_coordinates(rng):
    pts = rng.uniform(-10, -5, (200, 2))
    index = GridIndex(pts, 0.6)
    for _ in range(50):
        q = rng.uniform(-10.5, -4.5, 2)
        assert set(index.query_radius(q).tolist()) == \
            set(brute_force_neighbors(pts, q, 0.6).tolist())


def test_large_coordinates_with_tiny_radius():
    # floor(p / w) is about 1e19 here, beyond int64; keys count cells from
    # the points' minimum corner instead, so both points are found
    pts = np.array([[1e10, 0.0], [1e10 + 1e-10, 0.0]])
    index = GridIndex(pts, 1e-9)
    expected = brute_force_neighbors(pts, pts[0], 1e-9).tolist()
    assert expected == [0, 1]
    assert sorted(index.query_radius(pts[0]).tolist()) == expected


def test_rounding_at_cell_boundary_keeps_neighbor():
    # (q - corner) / w and (p - corner) / w round two cells apart although
    # ||p - q|| < w; the cell's widening over the radius absorbs this
    w, corner, p, q = 0.8574060222691, -2030.427544920923, 15613.273581332616, 15614.130987354885
    pts = np.array([[corner, 0.0], [p, 0.0]])
    assert brute_force_neighbors(pts, (q, 0.0), w).tolist() == [1]
    assert GridIndex(pts, w).query_radius((q, 0.0)).tolist() == [1]


def test_unkeyable_span_is_refused():
    with pytest.raises(ScanMatchError):
        GridIndex([(0.0, 0.0), (1e10, 0.0)], 1e-9)
    with pytest.raises(ScanMatchError):
        GridIndex([(-1e308, 0.0), (1e308, 0.0)], 1.0)


def test_out_of_range_query_is_empty():
    index = GridIndex([(0.0, 0.0), (1.0, 1.0)], 0.5)
    for q in [(1e300, 0.0), (0.0, -1e300), (-1e308, 1e308)]:
        assert index.query_radius(q).size == 0


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _grid_case(draw):
    """Points, a radius and queries, with queries near the points.

    The points are either arbitrary finite values or a cluster a few radii
    wide around an arbitrary anchor; each query is a point moved by up to
    two radii per axis, so many sit near the radius boundary.
    """
    radius = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        points = draw(hnp.arrays(np.float64, (n, 2), elements=_finite))
    else:
        anchor = np.array(draw(st.tuples(_finite, _finite)))
        steps = draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(-4.0, 4.0)))
        with np.errstate(all="ignore"):
            points = anchor + radius * steps
    factors = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), 2),
                              elements=st.floats(-2.0, 2.0)))
    with np.errstate(all="ignore"):
        queries = points[np.arange(len(factors)) % n] + radius * factors
    return points, radius, queries


@settings(deadline=None, max_examples=300)
@given(_grid_case())
def test_matches_brute_force_for_any_finite_input(case):
    with np.errstate(all="ignore"):
        points, radius, queries = case
        if not np.isfinite(points).all():
            return      # the cluster overflowed; not a finite input
        try:
            index = GridIndex(points, radius)
        except ScanMatchError:
            return      # refusing loudly is allowed, a wrong answer is not
        for q in queries:
            assert sorted(index.query_radius(q).tolist()) == \
                brute_force_neighbors(points, q, radius).tolist()
