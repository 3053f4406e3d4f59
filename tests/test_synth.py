import math

import numpy as np
import pytest

from emscan import Pose, make_scene, sample_contour
from emscan.synth import OUTLIER_CLEARANCE


class TestSampleContour:
    def test_shapes_and_counts(self):
        for shape in ("rectangle", "circle", "l-shape"):
            pts = sample_contour(shape, 57)
            assert pts.shape == (57, 2)
            assert np.isfinite(pts).all()

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_contour("circle", 2)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown shape"):
            sample_contour("triangle", 10)

    def test_rectangle_on_boundary(self):
        pts = sample_contour("rectangle", 120)
        on_edge = (np.isclose(np.abs(pts[:, 0]), 2.0) | np.isclose(np.abs(pts[:, 1]), 1.0))
        assert on_edge.all()

    def test_circle_radius(self):
        pts = sample_contour("circle", 64)
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.5, atol=1e-12)

    def test_uniform_arc_spacing(self):
        pts = sample_contour("circle", 100)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        np.testing.assert_allclose(gaps, gaps[0], rtol=1e-9)


class TestMakeScene:
    def test_deterministic_for_seed(self):
        pose = Pose(0.2, -0.1, 0.3)
        a = make_scene("rectangle", 100, pose, noise_sigma=0.05,
                       outlier_fraction=0.1, seed=7)
        b = make_scene("rectangle", 100, pose, noise_sigma=0.05,
                       outlier_fraction=0.1, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_noise_free_scan_equals_transformed_model(self):
        pose = Pose(0.4, 0.3, -0.2)
        model, scan, truth = make_scene("circle", 80, pose)
        np.testing.assert_array_equal(scan, pose.apply(model))
        assert truth["n_outliers"] == 0

    def test_outliers_planted_beyond_clearance(self):
        pose = Pose(0.1, 0.2, 0.05)
        model, scan, truth = make_scene("rectangle", 200, pose,
                                        noise_sigma=0.02, outlier_fraction=0.1, seed=3)
        assert truth["n_outliers"] == 20
        projected = pose.apply(model)
        d = np.linalg.norm(scan[:, None, :] - projected[None, :, :], axis=2)
        nearest = d.min(axis=1)
        # exactly 20 points farther than the clearance from every model point
        far = nearest > OUTLIER_CLEARANCE - 1.0
        assert far.sum() == 20
        assert (nearest[far] > 1.0).all()  # beyond any sane gate radius

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            make_scene("circle", 10, Pose.identity(), outlier_fraction=1.5)
        with pytest.raises(ValueError):
            make_scene("circle", 10, Pose.identity(), noise_sigma=-0.1)

    @pytest.mark.parametrize("noise_sigma", [math.nan, math.inf])
    def test_rejects_non_finite_noise(self, noise_sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            make_scene("circle", 10, Pose.identity(), noise_sigma=noise_sigma)

    def test_truth_record_fields(self):
        pose = Pose(0.1, -0.2, math.radians(4.0))
        _, _, truth = make_scene("l-shape", 50, pose, noise_sigma=0.01, seed=9)
        assert truth["schema_version"] == 1
        assert truth["shape"] == "l-shape"
        assert truth["pose"] == {"tx": pose.tx, "ty": pose.ty, "theta": pose.theta}
        assert truth["seed"] == 9
