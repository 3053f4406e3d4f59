import math
import warnings

import numpy as np
import pytest

from emscan import (
    EmConfig,
    EmptyInput,
    NoCorrespondences,
    NonPositiveRadius,
    Pose,
    PrecisionMatrix,
    brute_force_neighbors,
    build_graph,
    dense_em_register,
    make_scene,
    numerical_m_step,
    register,
)
from conftest import assert_pose_close, random_cloud

identity = Pose.identity()


class TestBruteForceNeighbors:
    def test_empty_points(self):
        assert brute_force_neighbors([], (0.0, 0.0), 1.0).size == 0

    def test_coincident_point(self):
        out = brute_force_neighbors([(2.0, 3.0)], (2.0, 3.0), 0.1)
        np.testing.assert_array_equal(out, [0])

    def test_strict_boundary(self):
        assert brute_force_neighbors([(1.0, 0.0)], (0.0, 0.0), 1.0).size == 0

    def test_radius_whose_square_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = brute_force_neighbors([(0.0, 0.0), (1e200, 0.0)], (0.0, 0.0), 1.5e200)
        np.testing.assert_array_equal(out, [0, 1])

    def test_radius_whose_square_underflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = brute_force_neighbors([(0.0, 0.0), (5e-201, 0.0), (2e-200, 0.0)],
                                        (0.0, 0.0), 1e-200)
        np.testing.assert_array_equal(out, [0, 1])

    def test_rejects_bad_radius(self):
        with pytest.raises(NonPositiveRadius):
            brute_force_neighbors([(0.0, 0.0)], (0.0, 0.0), 0.0)

    def test_matches_direct_distances(self, rng):
        pts = random_cloud(rng, 100)
        q = rng.uniform(-2, 2, 2)
        out = set(brute_force_neighbors(pts, q, 0.8).tolist())
        expected = {i for i, p in enumerate(pts) if math.hypot(*(p - q)) < 0.8}
        assert out == expected


class TestNumericalMStep:
    def test_pure_translation(self):
        model = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        scan = model + np.array([1.0, 2.0])
        g = build_graph(scan, model, Pose(1.0, 2.0, 0.0), 0.5)
        pose = numerical_m_step(g, PrecisionMatrix.identity())
        assert_pose_close(pose, Pose(1.0, 2.0, 0.0), atol=1e-6)

    def test_pure_rotation(self):
        model = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
        quarter = Pose(0.0, 0.0, math.pi / 2)
        scan = quarter.apply(model)
        g = build_graph(scan, model, quarter, 0.5)
        pose = numerical_m_step(g, PrecisionMatrix.identity())
        assert_pose_close(pose, quarter, atol=1e-6)

    def test_all_zero_weights_raise(self):
        g = build_graph([(0.0, 0.0)], [(0.1, 0.0)], identity, 1.0)
        g.posterior[:] = 0.0
        with pytest.raises(NoCorrespondences):
            numerical_m_step(g, PrecisionMatrix.identity())


class TestDenseEmRegister:
    def test_identity_scene(self):
        from emscan import sample_contour
        model = sample_contour("circle", 64)
        cfg = EmConfig.isotropic(0.02, window_w=0.5)
        res = dense_em_register(model, model, identity, cfg)
        assert res.converged
        assert abs(res.pose.tx) < 1e-9 and abs(res.pose.ty) < 1e-9
        assert abs(res.pose.theta) < 1e-9

    def test_matches_fast_path_on_rectangle_scene(self):
        truth = Pose(0.3, -0.2, math.radians(5.0))
        model, scan, _ = make_scene("rectangle", 200, truth, noise_sigma=0.02, seed=21)
        cfg = EmConfig.isotropic(0.02, window_w=1.0)
        fast = register(scan, model, identity, cfg)
        slow = dense_em_register(scan, model, identity, cfg)
        assert fast.iterations == slow.iterations
        assert fast.converged == slow.converged
        assert fast.n_inliers == slow.n_inliers
        assert_pose_close(fast.pose, slow.pose, atol=1e-9)
        np.testing.assert_allclose(fast.loglik_trace, slow.loglik_trace, atol=1e-9)
        np.testing.assert_allclose(fast.residual_covariance,
                                   slow.residual_covariance, atol=1e-12)

    def test_matches_fast_path_with_regate(self):
        truth = Pose(0.1, 0.08, 0.03)
        model, scan, _ = make_scene("circle", 90, truth, noise_sigma=0.02, seed=22)
        cfg = EmConfig.isotropic(0.02, window_w=0.5, regate_each_iteration=True)
        fast = register(scan, model, identity, cfg)
        slow = dense_em_register(scan, model, identity, cfg)
        assert_pose_close(fast.pose, slow.pose, atol=1e-9)

    def test_matches_fast_path_anisotropic(self):
        truth = Pose(0.05, -0.04, 0.02)
        model, scan, _ = make_scene("rectangle", 120, truth, noise_sigma=0.02, seed=23)
        cfg = EmConfig(gamma=PrecisionMatrix(2500.0, 400.0, 1600.0), window_w=0.5)
        fast = register(scan, model, identity, cfg)
        slow = dense_em_register(scan, model, identity, cfg)
        assert_pose_close(fast.pose, slow.pose, atol=1e-7)

    def test_all_beyond_window(self):
        cfg = EmConfig.isotropic(0.1, window_w=1.0)
        with pytest.raises(NoCorrespondences):
            dense_em_register([(0.0, 0.0)], [(30.0, 30.0)], identity, cfg)

    def test_empty_inputs(self):
        cfg = EmConfig.isotropic(0.1)
        with pytest.raises(EmptyInput):
            dense_em_register([], [(0.0, 0.0)], identity, cfg)


_ANISOTROPIC = PrecisionMatrix(2500.0, 375.0, 625.0)


def _parity_scene(seed: int, anisotropic: bool):
    rng = np.random.default_rng([5, seed])
    truth = Pose(*rng.uniform(-0.1, 0.1, 2), rng.uniform(-0.06, 0.06))
    model, scan, _ = make_scene(("rectangle", "l-shape", "circle")[seed % 3], 60, truth,
                                noise_sigma=0.0 if anisotropic else 0.02,
                                outlier_fraction=0.05, seed=seed)
    if anisotropic:
        noise_cov = np.linalg.inv(_ANISOTROPIC.as_matrix())
        scan = scan + rng.multivariate_normal([0.0, 0.0], noise_cov, scan.shape[0])
    return scan, model


@pytest.mark.parametrize("anisotropic", [False, True], ids=["isotropic", "anisotropic"])
@pytest.mark.parametrize("refit", [False, True], ids=["fixed", "refit"])
@pytest.mark.parametrize("regate", [False, True], ids=["gated-once", "regate"])
def test_dense_matches_fast_path_in_every_mode(regate, refit, anisotropic):
    for seed in range(3):
        scan, model = _parity_scene(seed, anisotropic)
        options = dict(regate_each_iteration=regate, reestimate_gamma=refit)
        cfg = (EmConfig(gamma=_ANISOTROPIC, window_w=0.3, **options) if anisotropic
               else EmConfig.isotropic(0.02, window_w=0.4, **options))
        fast = register(scan, model, identity, cfg)
        slow = dense_em_register(scan, model, identity, cfg)
        assert fast.iterations == slow.iterations
        assert fast.converged == slow.converged
        assert fast.n_inliers == slow.n_inliers
        assert_pose_close(fast.pose, slow.pose, atol=1e-8)
        np.testing.assert_allclose(fast.loglik_trace, slow.loglik_trace, rtol=1e-7, atol=1e-7)
