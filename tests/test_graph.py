import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from emscan import (
    EmptyInput,
    NonPositiveRadius,
    Pose,
    ScanMatchError,
    build_graph,
    dump_graph,
    outlier_count,
)
from conftest import random_cloud, random_pose

identity = Pose.identity()


class TestBuildGraph:
    def test_single_neighbor_prior_one(self):
        g = build_graph([(0.0, 0.0)], [(0.1, 0.0)], identity, 1.0)
        assert g.edge_count == 1
        assert g.prior[0] == 1.0
        assert g.posterior[0] == 1.0

    def test_two_neighbors_half_priors(self):
        g = build_graph([(0.0, 0.0)], [(0.5, 0.0), (-0.5, 0.0)], identity, 1.0)
        assert g.edge_count == 2
        np.testing.assert_array_equal(g.prior, [0.5, 0.5])

    def test_gate_excludes_far_point(self):
        g = build_graph([(0.0, 0.0)], [(5.0, 5.0)], identity, 1.0)
        assert g.edge_count == 0
        assert outlier_count(g) == 1
        assert g.inlier_count == 0

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInput):
            build_graph([], [(0.0, 0.0)], identity, 1.0)
        with pytest.raises(EmptyInput):
            build_graph([(0.0, 0.0)], [], identity, 1.0)

    def test_non_positive_window_rejected(self):
        with pytest.raises(NonPositiveRadius):
            build_graph([(0.0, 0.0)], [(0.0, 0.0)], identity, 0.0)

    def test_gate_applied_to_transformed_model(self):
        # model point lands on the scan point only after the gate pose
        pose0 = Pose(1.0, 0.0, 0.0)
        g = build_graph([(1.0, 0.0)], [(0.0, 0.0)], pose0, 0.5)
        assert g.edge_count == 1
        g2 = build_graph([(1.0, 0.0)], [(0.0, 0.0)], identity, 0.5)
        assert g2.edge_count == 0

    def test_huge_coordinates_raise_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = build_graph([[0.0, 0.0], [2e300, 0.0]], [[0.0, 0.0]], identity, 1.5e300)
        assert set(zip(g.scan_idx.tolist(), g.model_idx.tolist())) == {(0, 0)}

    def test_radius_whose_square_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = build_graph([[0.0, 0.0], [1e200, 0.0]], [[0.0, 0.0]], identity, 1.5e200)
        assert g.edge_set() == {(0, 0), (1, 0)}

    def test_radius_whose_square_underflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = build_graph([[0.0, 0.0], [5e-201, 0.0], [2e-200, 0.0]], [[0.0, 0.0]],
                            identity, 1e-200)
        assert g.edge_set() == {(0, 0), (1, 0)}

    def test_csr_layout(self, rng):
        scan = random_cloud(rng, 80)
        model = random_cloud(rng, 60)
        g = build_graph(scan, model, identity, 0.8)
        assert g.row_start.shape == (81,)
        assert g.row_start[0] == 0 and g.row_start[-1] == g.edge_count
        assert (np.diff(g.scan_idx) >= 0).all()
        for j in range(80):
            row = g.model_idx[g.row_start[j]:g.row_start[j + 1]]
            assert (np.diff(row) > 0).all()  # ascending, no duplicates
            assert (g.scan_idx[g.row_start[j]:g.row_start[j + 1]] == j).all()

    def test_prior_rows_sum_to_one(self, rng):
        for _ in range(20):
            scan = random_cloud(rng, int(rng.integers(1, 60)))
            model = random_cloud(rng, int(rng.integers(1, 60)))
            g = build_graph(scan, model, random_pose(rng, 0.2, 0.3), 1.0)
            for j in range(g.n_scan):
                row = g.prior[g.row_start[j]:g.row_start[j + 1]]
                if row.size:
                    assert abs(row.sum() - 1.0) < 1e-12

    def test_gate_soundness_vs_all_pairs(self, rng):
        for _ in range(10):
            scan = random_cloud(rng, 50)
            model = random_cloud(rng, 50)
            pose0 = random_pose(rng, 0.3, 0.5)
            w = float(rng.uniform(0.3, 1.2))
            g = build_graph(scan, model, pose0, w)
            proj = pose0.apply(model)
            d = scan[:, None, :] - proj[None, :, :]
            inside = d[..., 0] ** 2 + d[..., 1] ** 2 < w * w
            expected = set(zip(*map(list, np.nonzero(inside))))
            assert g.edge_set() == expected


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _gate_case(draw):
    """Scan and model clouds, a gate pose and a window.

    Each cloud is either arbitrary finite values or a cluster a few windows
    wide around an anchor: the model's anchor is arbitrary and the scan's
    is that anchor moved by the pose, so many pairs sit near the window.
    """
    w = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    pose = Pose(draw(_finite), draw(_finite), draw(st.floats(-4.0, 4.0)))
    anchor = np.array(draw(st.tuples(_finite, _finite)))

    def cloud(center):
        n = draw(st.integers(1, 12))
        if draw(st.booleans()):
            return draw(hnp.arrays(np.float64, (n, 2), elements=_finite))
        steps = draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(-4.0, 4.0)))
        return center + w * steps

    with np.errstate(all="ignore"):
        model = cloud(anchor)
        scan = cloud(pose.apply(anchor))
    return scan, model, pose, w


@settings(deadline=None, max_examples=300)
@given(_gate_case())
def test_gate_is_all_pairs_csr_for_any_finite_input(case):
    scan, model, pose, w = case
    with np.errstate(all="ignore"):
        proj = pose.apply(model)
        if not (np.isfinite(scan).all() and np.isfinite(proj).all()):
            return      # a cloud or the projected model overflowed; not a finite input
        # Scaled by a power of two, which is exact, so w * w cannot overflow
        # or underflow; elsewhere this is the unscaled squared test.
        exponent = math.frexp(w)[1]
        d = np.ldexp(proj[None, :, :] - scan[:, None, :], -exponent)
        r = math.ldexp(w, -exponent)
        inside = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] < r * r
        try:
            g = build_graph(scan, model, pose, w)
        except ScanMatchError:
            return      # refusing loudly is allowed, a wrong answer is not
    assert g.edge_set() == set(zip(*map(list, np.nonzero(inside))))
    assert (np.diff(g.scan_idx) >= 0).all()
    same_row = np.diff(g.scan_idx) == 0
    assert (np.diff(g.model_idx)[same_row] > 0).all()
    assert g.row_start[0] == 0
    np.testing.assert_array_equal(np.diff(g.row_start), inside.sum(axis=1))
    np.testing.assert_array_equal(g.prior, 1.0 / np.diff(g.row_start)[g.scan_idx])


@st.composite
def _lattice_gate_case(draw):
    """Scan, model and gate translation on a 2**-10 m lattice within 4 m, and
    a lattice radius up to 4 m: scaled by ``2**k`` for ``|k| <= 1000``, every
    coordinate and difference stays finite and normal."""
    lattice = st.integers(-2**12, 2**12)

    def points(n):
        return np.array(draw(st.lists(st.tuples(lattice, lattice), min_size=n, max_size=n)),
                        dtype=float).reshape(n, 2) * 2.0**-10

    scan = points(draw(st.integers(1, 10)))
    model = points(draw(st.integers(1, 10)))
    tx, ty = points(1)[0]
    w = draw(st.integers(1, 2**12)) * 2.0**-10
    return scan, model, Pose(tx, ty, 0.0), w


@settings(deadline=None, max_examples=200)
@given(_lattice_gate_case(), st.integers(-1000, 1000))
def test_gate_edges_are_invariant_under_power_of_two_scaling(case, k):
    scan, model, pose, w = case
    s = 2.0**k
    scaled = build_graph(scan * s, model * s, Pose(pose.tx * s, pose.ty * s, 0.0), w * s)
    assert scaled.edge_set() == build_graph(scan, model, pose, w).edge_set()


class TestOutlierCount:
    def test_every_point_matched(self, rng):
        pts = random_cloud(rng, 40)
        g = build_graph(pts, pts, identity, 0.5)
        assert outlier_count(g) == 0

    def test_planted_outliers(self, rng):
        model = random_cloud(rng, 60, span=3.0)
        scan = model.copy()
        planted = [3, 17, 41]
        for i, k in enumerate(planted):
            scan[k] = (100.0 + 5 * i, 100.0)
        g = build_graph(scan, model, identity, 0.5)
        assert outlier_count(g) == len(planted)
        assert g.inlier_count == 60 - len(planted)


class TestDumpGraph:
    def test_line_format_roundtrip(self):
        g = build_graph([(0.0, 0.0)], [(0.5, 0.0), (-0.5, 0.0)], identity, 1.0)
        buf = io.StringIO()
        dump_graph(g, buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == g.edge_count
        for line, j, k, pri, post in zip(lines, g.scan_idx, g.model_idx,
                                         g.prior, g.posterior):
            tokens = line.split()
            assert len(tokens) == 4
            assert int(tokens[0]) == j and int(tokens[1]) == k
            assert float(tokens[2]) == pri and float(tokens[3]) == post

    def test_write_to_path(self, tmp_path):
        g = build_graph([(0.0, 0.0)], [(0.1, 0.0)], identity, 1.0)
        path = tmp_path / "edges.txt"
        dump_graph(g, path)
        assert path.read_text().strip() == "0 0 1 1"
