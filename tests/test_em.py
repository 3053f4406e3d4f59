import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from emscan import (
    DegenerateGeometry,
    EmConfig,
    EmptyInput,
    NoCorrespondences,
    NoInliers,
    Pose,
    PrecisionMatrix,
    build_graph,
    e_step,
    m_step,
    make_scene,
    numerical_m_step,
    register,
    residual_covariance,
    sample_contour,
    slow_residual_covariance,
    wrap_angle,
)
from conftest import assert_pose_close, random_cloud, random_pose

identity = Pose.identity()
eye = PrecisionMatrix.identity()


def graph_with_weights(scan, model, w, weights):
    """Gated graph whose posteriors are overwritten with `weights[(j, k)]`."""
    g = build_graph(scan, model, identity, w)
    g.posterior[:] = 0.0
    for e in range(g.edge_count):
        key = (int(g.scan_idx[e]), int(g.model_idx[e]))
        if key in weights:
            g.posterior[e] = weights[key]
    return g


def fit_objective(graph, gamma, pose_vec):
    c, s = math.cos(pose_vec[2]), math.sin(pose_vec[2])
    rot = np.array([[c, -s], [s, c]])
    se = graph.scan[graph.scan_idx]
    me = graph.model[graph.model_idx]
    r = se - me @ rot.T - pose_vec[:2]
    quad = (gamma.g00 * r[:, 0] ** 2 + 2 * gamma.g01 * r[:, 0] * r[:, 1]
            + gamma.g11 * r[:, 1] ** 2)
    return float(graph.posterior @ quad)


def fd_gradient(fun, y, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        up, dn = y.copy(), y.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fun(up) - fun(dn)) / (2 * h)
    return g


class TestEStep:
    def test_single_edge_row_gets_one(self):
        g = build_graph([(0.0, 0.0)], [(0.7, 0.0)], identity, 1.0)
        e_step(g, identity, eye)
        assert g.posterior[0] == 1.0

    def test_equidistant_symmetric_split(self):
        g = build_graph([(0.0, 0.0)], [(0.5, 0.0), (-0.5, 0.0)], identity, 2.0)
        e_step(g, identity, eye)
        np.testing.assert_allclose(g.posterior, [0.5, 0.5], atol=1e-15)

    def test_two_candidate_responsibilities(self):
        # residuals (1,0) and (0,2) under the identity metric, equal priors:
        # exp(-1/2) / (exp(-1/2) + exp(-2)) and its complement
        g = build_graph([(0.0, 0.0)], [(1.0, 0.0), (0.0, 2.0)], identity, 3.0)
        e_step(g, identity, eye)
        np.testing.assert_allclose(
            g.posterior, [0.8175744761936437, 0.18242552380635635], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        for _ in range(20):
            scan = random_cloud(rng, int(rng.integers(2, 50)))
            model = random_cloud(rng, int(rng.integers(2, 50)))
            g = build_graph(scan, model, identity, 1.0)
            gamma = PrecisionMatrix.isotropic(float(rng.uniform(0.05, 0.5)))
            e_step(g, random_pose(rng, 0.1, 0.2), gamma)
            for j in range(g.n_scan):
                row = g.posterior[g.row_start[j]:g.row_start[j + 1]]
                if row.size:
                    assert abs(row.sum() - 1.0) < 1e-9
                assert (row >= 0).all() and (row <= 1.0 + 1e-12).all()

    def test_far_rows_stay_normalized(self):
        # best log-density near -1000: normalization must survive underflow
        gamma = PrecisionMatrix.isotropic(0.02)
        g = build_graph([(0.0, 0.0)], [(0.9, 0.0), (0.0, 0.91)], identity, 1.0)
        e_step(g, identity, gamma)
        assert np.isfinite(g.posterior).all()
        assert abs(g.posterior.sum() - 1.0) < 1e-9
        assert g.posterior[0] > g.posterior[1]

    def test_zero_edge_graph_is_noop(self):
        g = build_graph([(0.0, 0.0)], [(9.0, 9.0)], identity, 1.0)
        e_step(g, identity, eye)
        assert g.edge_count == 0

    def test_corrupt_priors_surface_degenerate_row(self):
        # white-box: the defensive fallback only trips on corrupt state
        from emscan import DegenerateRow
        g = build_graph([(0.0, 0.0)], [(0.1, 0.0)], identity, 1.0)
        g.prior[:] = math.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(DegenerateRow):
                e_step(g, identity, eye)


class TestLogMarginalLikelihood:
    def test_zero_edges_scores_zero(self):
        g = build_graph([(0.0, 0.0)], [(9.0, 9.0)], identity, 1.0)
        assert e_step(g, identity, eye) == 0.0

    def test_perfect_single_match_scores_zero(self):
        g = build_graph([(0.3, -0.2)], [(0.3, -0.2)], identity, 1.0)
        assert e_step(g, identity, eye) == pytest.approx(0.0, abs=1e-15)

    def test_two_candidate_value(self):
        # log(0.5 exp(-1/2) + 0.5 exp(-2)), computed directly
        g = build_graph([(0.0, 0.0)], [(1.0, 0.0), (0.0, 2.0)], identity, 3.0)
        assert e_step(g, identity, eye) == pytest.approx(-0.9917339025771928, abs=1e-12)

    def test_matches_direct_sum(self, rng):
        scan = random_cloud(rng, 30)
        model = random_cloud(rng, 25)
        g = build_graph(scan, model, identity, 1.5)
        gamma = PrecisionMatrix(3.0, 0.5, 2.0)
        pose = random_pose(rng, 0.1, 0.2)
        expected = 0.0
        for j in range(g.n_scan):
            lo, hi = g.row_start[j], g.row_start[j + 1]
            if lo == hi:
                continue
            total = 0.0
            for e in range(lo, hi):
                r = scan[j] - pose.apply(model[g.model_idx[e]])
                quad = (gamma.g00 * r[0] ** 2 + 2 * gamma.g01 * r[0] * r[1]
                        + gamma.g11 * r[1] ** 2)
                total += g.prior[e] * math.exp(-0.5 * quad)
            expected += math.log(total)
        assert e_step(g, pose, gamma) == pytest.approx(expected, abs=1e-9)


@st.composite
def _spd_gamma(draw):
    g00, g11 = draw(st.floats(0.1, 50.0)), draw(st.floats(0.1, 50.0))
    return PrecisionMatrix(g00, draw(st.floats(-0.95, 0.95)) * math.sqrt(g00 * g11), g11)


def _cloud(max_points):
    return hnp.arrays(np.float64, st.tuples(st.integers(1, max_points), st.just(2)),
                      elements=st.floats(-1.0, 1.0))


# Ranges keep every density above the float underflow, so the direct sum
# below stays finite.
@settings(deadline=None, max_examples=60)
@given(scan=_cloud(20), model=_cloud(20), window=st.floats(0.05, 1.0),
       pose=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-math.pi, math.pi)),
       gamma=_spd_gamma())
def test_e_step_normalizes_rows_and_returns_loglik(scan, model, window, pose, gamma):
    g = build_graph(scan, model, identity, window)
    pose = Pose(*pose)
    loglik = e_step(g, pose, gamma)
    expected = 0.0
    for j in range(g.n_scan):
        lo, hi = g.row_start[j], g.row_start[j + 1]
        if lo == hi:
            continue
        assert g.posterior[lo:hi].sum() == pytest.approx(1.0, abs=1e-12)
        r = scan[j] - pose.apply(model[g.model_idx[lo:hi]])
        quad = (gamma.g00 * r[:, 0] ** 2 + 2 * gamma.g01 * r[:, 0] * r[:, 1]
                + gamma.g11 * r[:, 1] ** 2)
        expected += math.log(math.fsum(g.prior[lo:hi] * np.exp(-0.5 * quad)))
    assert loglik == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestMStep:
    def test_pure_translation(self):
        model = np.array([(0.0, 0.0), (1.0, 0.5), (-0.5, 1.0), (2.0, -1.0)])
        scan = model + np.array([1.0, 2.0])
        weights = {(i, i): 1.0 for i in range(len(model))}
        g = graph_with_weights(scan, model, 4.0, weights)
        assert_pose_close(m_step(g, eye), Pose(1.0, 2.0, 0.0), atol=1e-12)

    def test_pure_rotation(self):
        model = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
        quarter = Pose(0.0, 0.0, math.pi / 2)
        scan = quarter.apply(model)
        weights = {(i, i): 1.0 for i in range(3)}
        g = graph_with_weights(scan, model, 4.0, weights)
        assert_pose_close(m_step(g, eye), quarter, atol=1e-12)

    def test_all_zero_weights_raise(self):
        g = graph_with_weights([(0.0, 0.0)], [(0.1, 0.0)], 1.0, {})
        with pytest.raises(NoCorrespondences):
            m_step(g, eye)

    def test_tiny_total_weight_raises(self):
        g = graph_with_weights([(0.0, 0.0)], [(0.1, 0.0)], 1.0, {(0, 0): 1e-14})
        with pytest.raises(DegenerateGeometry):
            m_step(g, eye)

    def test_matches_numerical_minimizer(self, rng):
        for _ in range(5):
            model = random_cloud(rng, 20, span=3.0)
            true_pose = random_pose(rng, 0.3, 0.4)
            scan = true_pose.apply(model) + rng.normal(0, 0.05, (20, 2))
            g = build_graph(scan, model, true_pose, 1.0)
            g.posterior[:] = rng.uniform(0.05, 1.0, g.edge_count)
            fast = m_step(g, eye)
            slow = numerical_m_step(g, eye)
            assert_pose_close(fast, slow, atol=1e-6)
            f_fast = fit_objective(g, eye, fast.to_array())
            f_slow = fit_objective(g, eye, slow.to_array())
            assert abs(f_fast - f_slow) < 1e-10
            assert f_fast <= f_slow + 1e-10

    def test_anisotropic_matches_numerical(self, rng):
        gamma = PrecisionMatrix(4.0, 0.8, 1.5)
        for _ in range(5):
            model = random_cloud(rng, 15, span=3.0)
            true_pose = random_pose(rng, 0.2, 0.3)
            scan = true_pose.apply(model) + rng.normal(0, 0.05, (15, 2))
            g = build_graph(scan, model, true_pose, 1.0)
            g.posterior[:] = rng.uniform(0.05, 1.0, g.edge_count)
            fast = m_step(g, gamma)
            slow = numerical_m_step(g, gamma)
            assert_pose_close(fast, slow, atol=1e-5)

    def test_stationary_point(self, rng):
        for gamma in (eye, PrecisionMatrix(2.0, -0.4, 1.0)):
            model = random_cloud(rng, 25, span=3.0)
            pose = random_pose(rng, 0.2, 0.3)
            scan = pose.apply(model) + rng.normal(0, 0.03, (25, 2))
            g = build_graph(scan, model, pose, 1.0)
            g.posterior[:] = rng.uniform(0.1, 1.0, g.edge_count)
            fitted = m_step(g, gamma)
            grad = fd_gradient(lambda y: fit_objective(g, gamma, y), fitted.to_array())
            assert np.linalg.norm(grad) < 1e-6


class TestResidualCovariance:
    def test_perfect_alignment_gives_zero(self):
        pose = Pose(0.4, -0.1, 0.7)
        model = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, -0.5)])
        scan = pose.apply(model)
        g = build_graph(scan, model, pose, 1.0)
        e_step(g, pose, eye)
        cov, n_p = residual_covariance(g, pose)
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))
        assert n_p == 3

    def test_single_edge_outer_product(self):
        g = graph_with_weights([(1.0, 0.0)], [(0.0, 0.0)], 2.0, {(0, 0): 1.0})
        cov, n_p = residual_covariance(g, identity)
        np.testing.assert_allclose(cov, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
        assert n_p == 1

    def test_no_inliers_raises(self):
        g = build_graph([(0.0, 0.0)], [(9.0, 9.0)], identity, 1.0)
        with pytest.raises(NoInliers):
            residual_covariance(g, identity)

    def test_matches_slow_oracle(self, rng):
        scan = random_cloud(rng, 40)
        model = random_cloud(rng, 35)
        g = build_graph(scan, model, identity, 1.2)
        gamma = PrecisionMatrix.isotropic(0.3)
        pose = random_pose(rng, 0.1, 0.2)
        e_step(g, pose, gamma)
        fast, n_fast = residual_covariance(g, pose)
        slow, n_slow = slow_residual_covariance(g, pose)
        assert n_fast == n_slow
        np.testing.assert_allclose(fast, slow, atol=1e-12)
        assert fast[0, 1] == fast[1, 0]
        assert np.linalg.eigvalsh(fast).min() >= -1e-12


class TestRegister:
    def test_identity_fixed_point_circle(self):
        model = sample_contour("circle", 64)
        cfg = EmConfig.isotropic(0.02, window_w=1.0)
        res = register(model, model, identity, cfg)
        assert res.converged
        assert res.iterations <= 2
        assert abs(res.pose.tx) < 1e-9 and abs(res.pose.ty) < 1e-9
        assert abs(res.pose.theta) < 1e-9

    def test_identity_fixed_point_rectangle(self):
        # Spacing of 0.12 m >> sigma keeps cross-neighbor responsibilities
        # (exp(-(spacing/sigma)^2 / 2)) far below the 1e-9 tolerance; denser
        # sampling leaves a soft-assignment rotation drift around 1e-7.
        model = sample_contour("rectangle", 100)
        cfg = EmConfig.isotropic(0.02, window_w=1.0)
        res = register(model, model, identity, cfg)
        assert res.converged
        assert res.iterations <= 2
        assert abs(res.pose.tx) < 1e-9 and abs(res.pose.ty) < 1e-9
        assert abs(res.pose.theta) < 1e-9

    def test_rectangle_recovery(self):
        truth = Pose(0.3, -0.2, math.radians(5.0))
        model, scan, _ = make_scene("rectangle", 200, truth, noise_sigma=0.02, seed=11)
        cfg = EmConfig.isotropic(0.02, window_w=1.0)
        res = register(scan, model, identity, cfg)
        assert res.converged
        assert math.hypot(res.pose.tx - truth.tx, res.pose.ty - truth.ty) < 0.02
        assert abs(wrap_angle(res.pose.theta - truth.theta)) < math.radians(1.0)
        assert (np.diff(res.loglik_trace) > -1e-9).all()
        assert res.n_inliers == 200
        cov = res.residual_covariance
        assert cov[0, 1] == cov[1, 0]
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_trace_monotone_on_random_scenes(self, rng):
        for seed in range(5):
            pert = random_pose(rng, 0.3, math.radians(8.0))
            model, scan, _ = make_scene("rectangle", 150, pert,
                                        noise_sigma=0.02, seed=100 + seed)
            cfg = EmConfig.isotropic(0.02, window_w=1.0)
            res = register(scan, model, identity, cfg)
            assert (np.diff(res.loglik_trace) > -1e-9).all()

    def test_empty_inputs_propagate(self):
        cfg = EmConfig.isotropic(0.1)
        with pytest.raises(EmptyInput):
            register([], [(0.0, 0.0)], identity, cfg)
        with pytest.raises(EmptyInput):
            register([(0.0, 0.0)], [], identity, cfg)

    def test_disjoint_scene_raises(self):
        cfg = EmConfig.isotropic(0.1, window_w=1.0)
        with pytest.raises(NoCorrespondences):
            register([(0.0, 0.0)], [(50.0, 50.0)], identity, cfg)

    def test_non_convergence_is_reported_not_raised(self):
        truth = Pose(0.2, 0.1, 0.05)
        model, scan, _ = make_scene("rectangle", 100, truth, noise_sigma=0.02, seed=3)
        cfg = EmConfig.isotropic(0.02, window_w=1.0,
                                 max_iterations=3, convergence_epsilon=1e-30)
        res = register(scan, model, identity, cfg)
        assert not res.converged
        assert res.iterations == 3
        assert len(res.loglik_trace) == 4

    def test_regate_mode(self):
        truth = Pose(0.15, -0.1, 0.03)
        model, scan, _ = make_scene("rectangle", 150, truth, noise_sigma=0.02, seed=4)
        cfg = EmConfig.isotropic(0.02, window_w=0.5, regate_each_iteration=True)
        res = register(scan, model, identity, cfg)
        assert math.hypot(res.pose.tx - truth.tx, res.pose.ty - truth.ty) < 0.02

    def test_gamma_reestimation_mode(self):
        truth = Pose(0.1, 0.05, 0.02)
        model, scan, _ = make_scene("rectangle", 150, truth, noise_sigma=0.02, seed=5)
        cfg = EmConfig.isotropic(0.05, window_w=0.5, reestimate_gamma=True)
        res = register(scan, model, identity, cfg)
        assert math.hypot(res.pose.tx - truth.tx, res.pose.ty - truth.ty) < 0.02
        assert np.isfinite(res.loglik_trace).all()

    def test_forward_reverse_consistency(self):
        # noise-free circle: forward and reverse registrations must invert
        g = Pose(0.05, -0.03, math.radians(2.0))
        model = sample_contour("circle", 120)
        scan = g.apply(model)
        cfg = EmConfig.isotropic(0.02, window_w=0.5, convergence_epsilon=1e-9)
        forward = register(scan, model, identity, cfg).pose
        reverse = register(model, scan, identity, cfg).pose
        assert_pose_close(forward.compose(reverse), identity, atol=1e-5)


class TestEmConfig:
    def test_default_window_is_three_sigma(self):
        assert EmConfig.isotropic(0.1).resolved_window() == pytest.approx(0.3)
        assert EmConfig.isotropic(0.1, window_w=0.7).resolved_window() == 0.7

    def test_default_window_uses_weakest_direction(self):
        cfg = EmConfig(gamma=PrecisionMatrix(4.0, 0.0, 1.0))
        assert cfg.resolved_window() == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig.isotropic(0.1, max_iterations=0)
        with pytest.raises(ValueError):
            EmConfig.isotropic(0.1, convergence_epsilon=0.0)
        with pytest.raises(ValueError):
            EmConfig.isotropic(0.1, window_w=-1.0)
        with pytest.raises(TypeError):
            EmConfig(gamma=np.eye(2))
