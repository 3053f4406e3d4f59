import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emscan import (
    Point,
    Pose,
    PrecisionMatrix,
    as_point_array,
    mahalanobis_sq,
    wrap_angle,
)
from conftest import assert_pose_close, random_pose


class TestWrapAngle:
    def test_interval(self, rng):
        for theta in rng.uniform(-50.0, 50.0, 2000):
            w = wrap_angle(theta)
            assert -math.pi < w <= math.pi
            # same angle modulo full turns
            assert abs(math.remainder(w - theta, math.tau)) < 1e-9

    @pytest.mark.parametrize("theta,expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (math.tau, 0.0),
    ])
    def test_boundaries(self, theta, expected):
        assert wrap_angle(theta) == pytest.approx(expected, abs=1e-12)


class TestPoint:
    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Point(bad, 0.0)
            with pytest.raises(ValueError):
                Point(0.0, bad)

    def test_iteration_and_array(self):
        p = Point(1.5, -2.0)
        assert tuple(p) == (1.5, -2.0)
        np.testing.assert_array_equal(p.to_array(), [1.5, -2.0])


class TestAsPointArray:
    def test_accepts_points_tuples_arrays(self):
        expected = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(as_point_array([Point(1, 2), Point(3, 4)]), expected)
        np.testing.assert_array_equal(as_point_array([(1, 2), (3, 4)]), expected)
        np.testing.assert_array_equal(as_point_array(expected), expected)

    def test_copies_input(self):
        src = np.zeros((3, 2))
        out = as_point_array(src)
        out[0, 0] = 5.0
        assert src[0, 0] == 0.0

    def test_empty(self):
        assert as_point_array([]).shape == (0, 2)

    def test_rejects_bad_shape_and_nan(self):
        with pytest.raises(ValueError):
            as_point_array(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            as_point_array([(0.0, math.nan)])


class TestPose:
    def test_identity_apply(self):
        assert Pose(0, 0, 0).apply(Point(3.5, -1.0)) == Point(3.5, -1.0)

    def test_pure_translation(self):
        assert Pose(1, 2, 0).apply(Point(0, 0)) == Point(1.0, 2.0)

    def test_quarter_turn(self):
        moved = Pose(0, 0, math.pi / 2).apply(Point(1, 0))
        assert moved.x == pytest.approx(0.0, abs=1e-15)
        assert moved.y == pytest.approx(1.0, abs=1e-15)

    def test_apply_array_matches_pointwise(self, rng):
        pose = random_pose(rng)
        pts = rng.uniform(-3, 3, (40, 2))
        moved = pose.apply(pts)
        for i in range(len(pts)):
            one = pose.apply(Point(*pts[i]))
            assert moved[i, 0] == pytest.approx(one.x, abs=1e-12)
            assert moved[i, 1] == pytest.approx(one.y, abs=1e-12)

    def test_theta_normalized(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Pose(0, 0, -math.pi).theta == pytest.approx(math.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose(math.nan, 0, 0)
        with pytest.raises(ValueError):
            Pose(0, 0, math.inf)

    def test_composition_law(self, rng):
        # a.apply(b.apply(p)) == a.compose(b).apply(p)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            p = Point(*rng.uniform(-2, 2, 2))
            lhs = a.apply(b.apply(p))
            rhs = a.compose(b).apply(p)
            assert lhs.x == pytest.approx(rhs.x, abs=1e-12)
            assert lhs.y == pytest.approx(rhs.y, abs=1e-12)

    def test_group_laws(self, rng):
        identity = Pose.identity()
        for _ in range(50):
            a, b, c = (random_pose(rng) for _ in range(3))
            assert_pose_close(a.compose(identity), a, atol=1e-12)
            assert_pose_close(identity.compose(a), a, atol=1e-12)
            assert_pose_close(a.compose(b).compose(c), a.compose(b.compose(c)), atol=1e-12)
            assert_pose_close(a.compose(a.inverse()), identity, atol=1e-12)

    def test_invert_examples(self):
        assert Pose(0, 0, 0).inverse() == Pose(0, 0, 0)
        assert_pose_close(Pose(1, 0, 0).inverse(), Pose(-1, 0, 0), atol=1e-15)
        assert_pose_close(Pose(1, 2, math.pi / 2).inverse(),
                          Pose(-2, 1, -math.pi / 2), atol=1e-15)

    def test_invert_roundtrip_on_points(self, rng):
        for _ in range(50):
            g = random_pose(rng)
            p = Point(*rng.uniform(-2, 2, 2))
            back = g.inverse().apply(g.apply(p))
            assert back.x == pytest.approx(p.x, abs=1e-12)
            assert back.y == pytest.approx(p.y, abs=1e-12)

    def test_array_roundtrip(self):
        g = Pose(0.3, -0.2, 0.5)
        assert Pose.from_array(g.to_array()) == g
        assert g.apply(np.zeros(2)) == pytest.approx([0.3, -0.2])


class TestPrecisionMatrix:
    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            PrecisionMatrix(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PrecisionMatrix(1.0, 2.0, 1.0)   # det = -3
        with pytest.raises(ValueError):
            PrecisionMatrix(1.0, 0.0, 0.0)   # singular

    def test_rejects_overflowing_determinant(self):
        with pytest.raises(ValueError, match="finite determinant"):
            PrecisionMatrix(1e300, 0.0, 1e300)

    def test_isotropic(self):
        g = PrecisionMatrix.isotropic(0.5)
        assert g.is_isotropic
        assert g.g00 == pytest.approx(4.0)
        assert g.max_noise_sigma() == pytest.approx(0.5)
        with pytest.raises(ValueError):
            PrecisionMatrix.isotropic(0.0)

    @pytest.mark.parametrize("sigma", [1e-200, 1e-161, 1e200, math.inf, math.nan, -0.5])
    def test_isotropic_refuses_sigma_without_finite_precision(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            PrecisionMatrix.isotropic(sigma)

    def test_from_matrix_requires_symmetry(self):
        with pytest.raises(ValueError):
            PrecisionMatrix.from_matrix([[1.0, 0.5], [0.4, 1.0]])
        g = PrecisionMatrix.from_matrix([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(g.as_matrix(), [[2.0, 0.3], [0.3, 1.0]])

    def test_eigenvalues_match_numpy(self, rng):
        for _ in range(100):
            a = rng.uniform(0.1, 3.0)
            d = rng.uniform(0.1, 3.0)
            b = rng.uniform(-1, 1) * math.sqrt(a * d) * 0.9
            g = PrecisionMatrix(a, b, d)
            np.testing.assert_allclose(g.eigenvalues(),
                                       np.linalg.eigvalsh(g.as_matrix()),
                                       atol=1e-12)

    @settings(deadline=None, max_examples=300)
    @given(log_g00=st.floats(-150.0, 150.0), log_g11=st.floats(-150.0, 150.0),
           corr=st.floats(-0.999, 0.999))
    @example(log_g00=-1.0, log_g11=-1.0, corr=1.4e-45)
    def test_eigenvalues_keep_det_and_trace(self, log_g00, log_g11, corr):
        # eigenvalue ratios up to 1e300, where mean - spread cancels
        g00, g11 = 10.0 ** log_g00, 10.0 ** log_g11
        g = PrecisionMatrix(g00, corr * math.sqrt(g00 * g11), g11)
        lo, hi = g.eigenvalues()
        assert 0.0 < lo <= hi
        assert lo * hi == pytest.approx(g.det, rel=1e-12)
        assert lo + hi == pytest.approx(g00 + g11, rel=1e-12)


class TestMahalanobis:
    def test_zero_vector(self):
        assert mahalanobis_sq((0.0, 0.0), PrecisionMatrix.identity()) == 0.0

    def test_identity_metric(self):
        assert mahalanobis_sq((1.0, 0.0), PrecisionMatrix.identity()) == 1.0

    def test_diagonal_metric(self):
        # (1, 2) under diag(2, 0.5): 1*2 + 4*0.5 = 4
        assert mahalanobis_sq((1.0, 2.0), PrecisionMatrix(2.0, 0.0, 0.5)) == pytest.approx(4.0)

    def test_quadratic_scaling(self, rng):
        g = PrecisionMatrix(2.0, 0.4, 1.0)
        for _ in range(100):
            v = rng.uniform(-2, 2, 2)
            alpha = rng.uniform(-3, 3)
            assert mahalanobis_sq(alpha * v, g) == pytest.approx(
                alpha * alpha * mahalanobis_sq(v, g), rel=1e-12, abs=1e-15)

    def test_positive_and_vectorized(self, rng):
        g = PrecisionMatrix(1.5, -0.3, 0.8)
        vs = rng.uniform(-5, 5, (200, 2))
        out = mahalanobis_sq(vs, g)
        assert out.shape == (200,)
        assert (out > 0).all()
        assert out[0] == pytest.approx(mahalanobis_sq(vs[0], g))

