import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import emscan.em
from emscan import (
    DegenerateGeometry,
    DegenerateRow,
    EmConfig,
    EmptyInput,
    MatchGraph,
    NoCorrespondences,
    NoInliers,
    Pose,
    PrecisionMatrix,
    SHAPES,
    build_graph,
    e_step,
    m_step,
    make_scene,
    register,
    residual_covariance,
    sample_contour,
    wrap_angle,
)
from conftest import assert_pose_close, random_cloud, random_pose
from slow_oracles import column_m_step, numerical_m_step, slow_residual_covariance

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

    def test_row_prior_scale_shifts_only_the_loglik(self, rng):
        # a per-row constant c_j on the prior cancels in the posterior and
        # adds log c_j to the row's log-likelihood term
        for _ in range(20):
            scan = random_cloud(rng, int(rng.integers(2, 50)))
            model = random_cloud(rng, int(rng.integers(2, 50)))
            pose = random_pose(rng, 0.1, 0.2)
            gamma = PrecisionMatrix.isotropic(float(rng.uniform(0.05, 0.5)))
            g = build_graph(scan, model, identity, 1.0)
            scaled = build_graph(scan, model, identity, 1.0)
            c = rng.uniform(0.1, 10.0, g.n_scan)
            scaled.prior *= np.repeat(c, g.neighbor_counts)
            loglik = e_step(g, pose, gamma)
            shifted = e_step(scaled, pose, gamma)
            np.testing.assert_array_equal(scaled.posterior, g.posterior)
            expected = loglik + float(np.log(c[g.neighbor_counts > 0]).sum())
            assert shifted == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_a_nan_prior_in_one_row_surfaces_degenerate_row(self, rng):
        scan = random_cloud(rng, 30)
        g = build_graph(scan, scan + 0.01, identity, 1.0)
        j = int(np.flatnonzero(g.neighbor_counts)[g.inlier_count // 2])
        g.prior[g.row_start[j]:g.row_start[j + 1]] = math.nan
        with pytest.raises(DegenerateRow, match="not finite"):
            e_step(g, identity, eye)

    @pytest.mark.parametrize("sigma", [1.0, 0.001], ids=["no-shift", "shifted"])
    def test_a_nan_prior_leaves_the_posterior_unwritten(self, sigma):
        gamma = PrecisionMatrix.isotropic(sigma)
        g = build_graph([(0.0, 0.0), (1.0, 0.0)], [(0.1, 0.0), (0.0, 0.2), (1.0, 0.1)],
                        identity, 0.5)
        no_shift = emscan.em._exponents(g, identity, gamma).min() >= emscan.em._NO_SHIFT_FLOOR
        assert no_shift == (sigma == 1.0)
        g.prior[g.row_start[1]:] = math.nan
        g.posterior[:] = 0.25
        with pytest.raises(DegenerateRow, match="not finite"):
            e_step(g, identity, gamma)
        np.testing.assert_array_equal(g.posterior, 0.25)

    def test_overflowing_exponents_raise_degenerate_row(self):
        # every edge's Mahalanobis term overflows, leaving the row no finite weight
        gamma = PrecisionMatrix(1.7e308, 0.0, 1e-10)
        g = build_graph([(0.0, 0.0)], [(2.0, 0.0), (3.0, 0.0)], identity, 5.0)
        with pytest.raises(DegenerateRow, match="not finite"):
            e_step(g, identity, gamma)


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


@st.composite
def _anchored_scene(draw):
    """A graph gated at a random anchor: clouds up to 1 km from the origin,
    radii from 1 mm to 10 m, and a pose near the anchor or up to pi and 10 m
    away from it, as SQUAREM's trial poses may be."""
    radius = 10.0 ** draw(st.floats(-3.0, 1.0))
    offset = draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    model = np.add(offset, radius * draw(hnp.arrays(
        np.float64, st.tuples(st.integers(1, 12), st.just(2)), elements=st.floats(-3.0, 3.0))))
    anchor = Pose(*draw(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                                  st.floats(-math.pi, math.pi))))
    noise = draw(hnp.arrays(np.float64, model.shape, elements=st.floats(-0.5, 0.5)))
    g = build_graph(anchor.apply(model) + radius * noise, model, anchor, radius)
    reach, turn = (radius, 0.1) if draw(st.booleans()) else (10.0, math.pi)
    dx, dy, dt = draw(st.tuples(st.floats(-reach, reach), st.floats(-reach, reach),
                                st.floats(-turn, turn)))
    return g, Pose(anchor.tx + dx, anchor.ty + dy, anchor.theta + dt), radius


def _exact_exponents(graph, pose, gamma):
    """``-r^T Gamma r / 2`` per edge, in exact rational arithmetic on
    ``r = s - R m - t`` with the float ``cos`` and ``sin`` of ``pose.theta``."""
    c, s = Fraction(math.cos(pose.theta)), Fraction(math.sin(pose.theta))
    tx, ty = Fraction(pose.tx), Fraction(pose.ty)
    g00, g01, g11 = (Fraction(v) for v in (gamma.g00, gamma.g01, gamma.g11))
    out = []
    for j, k in zip(graph.scan_idx.tolist(), graph.model_idx.tolist()):
        (sx, sy), (mx, my) = (map(Fraction, graph.scan[j].tolist()),
                              map(Fraction, graph.model[k].tolist()))
        rx, ry = sx - (c * mx - s * my + tx), sy - (s * mx + c * my + ty)
        out.append(-(g00 * rx * rx + 2 * g01 * rx * ry + g11 * ry * ry) / 2)
    return out


@settings(deadline=None, max_examples=80)
@given(scene=_anchored_scene(), anisotropic=st.booleans(), ratio=st.floats(1.0, 1e3),
       axis=st.floats(0.0, math.pi))
def test_feature_exponents_stay_within_the_rounding_bound(scene, anisotropic, ratio, axis):
    g, pose, radius = scene
    lam = (3.0 / radius) ** 2
    rot = Pose(0.0, 0.0, axis).rotation()
    gamma = (PrecisionMatrix.from_matrix(rot @ np.diag([lam, lam * ratio]) @ rot.T)
             if anisotropic else PrecisionMatrix(lam, 0.0, lam))
    expo = emscan.em._exponents(g, pose, gamma)
    err = np.array([abs(float(Fraction(x) - exact))
                    for x, exact in zip(expo.tolist(), _exact_exponents(g, pose, gamma))])
    e_step(g, pose, gamma)
    assert float(g.posterior @ err) <= emscan.em._loglik_rounding(g, pose, gamma)
    for e in range(g.edge_count):   # all the weight on one edge
        g.posterior[:] = 0.0
        g.posterior[e] = 1.0
        assert err[e] <= emscan.em._loglik_rounding(g, pose, gamma)


@st.composite
def _scaled_gamma(draw):
    """Precision about any axis with eigenvalue ratio 1 down to 1e-12, at overall
    scales from 2**-900 to 2**900."""
    ratio = 10.0 ** draw(st.floats(-12.0, 0.0))
    rot = Pose(0.0, 0.0, draw(st.floats(0.0, math.pi))).rotation()
    try:
        return PrecisionMatrix.from_matrix(
            rot @ np.diag([1.0, ratio]) @ rot.T * 2.0 ** draw(st.integers(-900, 900)))
    except ValueError:      # the rounded determinant is not positive
        assume(False)


def _small_scene():
    return (build_graph([(0.1, 0.2), (0.5, -0.3)], [(0.0, 0.0), (0.4, -0.2)], identity, 1.0),
            Pose(0.05, -0.02, 0.1), 1.0)


@settings(deadline=None, max_examples=80)
@given(scene=_anchored_scene(), gamma=_scaled_gamma())
# eigenvalue ratio 1e-17, where g11 / 2 - u01^2 rounds below 0
@example(scene=_small_scene(),
         gamma=PrecisionMatrix(0.8768927189221046, 0.3285603116986338, 0.12310728107789534))
# the smallest subnormal g00, whose half rounds to 0
@example(scene=_small_scene(), gamma=PrecisionMatrix(5e-324, 0.0, 1.0))
def test_factored_exponents_stay_within_the_rounding_bound_at_any_scale(scene, gamma):
    g, pose, _ = scene
    expo = emscan.em._exponents(g, pose, gamma)
    assert (expo <= 0.0).all()
    err = np.array([abs(float(Fraction(x) - exact))
                    for x, exact in zip(expo.tolist(), _exact_exponents(g, pose, gamma))])
    for e in range(g.edge_count):   # all the weight on one edge
        g.posterior[:] = 0.0
        g.posterior[e] = 1.0
        assert err[e] <= emscan.em._loglik_rounding(g, pose, gamma)


_SMALLEST_NORMAL = 2.0 ** -1022
# Exponent gaps below a row's best edge: near log(2**-1021) = -707.7, where
# exp leaves its fast path, log(2**-1022) = -708.4, the smallest normal
# weight, and -744.4 / -745.1, the smallest subnormal one.
_TAIL_GAPS = st.one_of(st.floats(0.0, 760.0), st.floats(707.0, 710.0), st.floats(744.0, 747.0),
                       st.sampled_from([0.0, 707.7, 708.0, 708.3964185322641, 708.4, 744.4,
                                        745.1]))


@st.composite
def _far_tail_rows(draw):
    """Per-edge gaps below the row's best edge, rows of 0 to 6 edges, with
    empty rows first, in the middle and last."""
    def rows():
        out = []
        for gaps in draw(st.lists(st.lists(_TAIL_GAPS, max_size=6), min_size=1, max_size=4)):
            if gaps:
                gaps[draw(st.integers(0, len(gaps) - 1))] = 0.0
            out.append(gaps)
        return out
    middle = rows()
    assume(any(middle))
    return [[]] + middle + [[]] + rows() + [[]]


@settings(deadline=None, max_examples=150)
@given(rows=_far_tail_rows(), base=st.floats(0.0, 50.0))
def test_e_step_flushes_only_weights_below_the_smallest_normal(rows, base):
    # Scan points at the origin, one model point per edge on the x axis at
    # the distance that puts its exponent ``gap`` below the row's best.
    counts = [len(r) for r in rows]
    scan_idx = np.repeat(np.arange(len(rows)), counts)
    dist = np.array([math.sqrt(2.0 * (base + gap)) for r in rows for gap in r])
    model = np.column_stack((dist, np.zeros_like(dist)))
    g = MatchGraph.from_edges(np.zeros((len(rows), 2)), model, scan_idx, np.arange(dist.size))
    loglik = e_step(g, identity, eye)

    w = g.posterior
    assert np.all((w == 0.0) | (w >= _SMALLEST_NORMAL))
    expected = []
    for j, count in enumerate(counts):
        lo, hi = g.row_start[j], g.row_start[j + 1]
        if count == 0:
            continue
        assert math.fsum(w[lo:hi]) == pytest.approx(1.0, abs=1e-12)
        expo = [math.log(g.prior[e]) - 0.5 * (dist[e] * dist[e]) for e in range(lo, hi)]
        top = max(expo)
        lse = top + math.log(math.fsum(math.exp(x - top) for x in expo))
        expected.append(lse)
        for e, x in zip(range(lo, hi), expo):
            exact = math.exp(x - lse)
            if w[e] == 0.0:
                assert exact < _SMALLEST_NORMAL * (1.0 + 1e-12)
            else:
                assert w[e] == pytest.approx(exact, rel=1e-12)
    assert loglik == pytest.approx(math.fsum(expected), rel=1e-12, abs=1e-12)


_NO_SHIFT_FLOOR = emscan.em._NO_SHIFT_FLOOR


@st.composite
def _shallow_rows(draw):
    """Exponents of rows of 0 to 6 edges: the best from 0 to -660 and the others
    up to 700 below it, so the smallest falls on both sides of the no-shift floor."""
    rows = []
    for size in draw(st.lists(st.integers(0, 6), min_size=1, max_size=5)):
        if not size:
            rows.append([])
            continue
        best = -draw(st.floats(0.0, 660.0))
        gaps = draw(st.lists(st.floats(0.0, 700.0), min_size=size - 1, max_size=size - 1))
        rows.append(draw(st.permutations([best] + [best - gap for gap in gaps])))
    assume(any(rows))
    return rows


@settings(deadline=None, max_examples=150)
@given(rows=_shallow_rows())
@example(rows=[[-650.0, -650.7, -649.9], [], [-651.0]])     # far from the model, yet unshifted
@example(rows=[[-1.0, _NO_SHIFT_FLOOR], [0.0]])         # the smallest exponent at the floor
# a normal exp(-707) whose posterior, divided by 5, is not normal: the margin shifts it
@example(rows=[[0.0, 0.0, 0.0, 0.0, 0.0, -707.0]])
def test_e_step_on_either_side_of_the_no_shift_floor(rows):
    counts = [len(r) for r in rows]
    g = MatchGraph.from_edges(np.zeros((len(rows), 2)), np.zeros((sum(counts), 2)),
                              np.repeat(np.arange(len(rows)), counts), np.arange(sum(counts)))
    expo = np.array([x for r in rows for x in r])
    with mock.patch.object(emscan.em, "_exponents", lambda *_: expo.copy()):
        loglik = e_step(g, identity, eye)

    w = g.posterior
    assert np.all((w == 0.0) | (w >= _SMALLEST_NORMAL))
    expected = []
    for j, row in enumerate(rows):
        if not row:
            continue
        lo, hi = g.row_start[j], g.row_start[j + 1]
        top = max(row)
        lse = top + math.log(math.fsum(math.exp(x - top) for x in row))
        expected.append(math.log(g.prior[lo]) + lse)
        assert math.fsum(w[lo:hi]) == pytest.approx(1.0, abs=1e-12)
        for e, x in zip(range(lo, hi), row):
            exact = math.exp(x - lse)
            if w[e] == 0.0:
                assert exact < _SMALLEST_NORMAL * (1.0 + 1e-12)
            else:
                assert w[e] == pytest.approx(exact, rel=1e-12)
    assert loglik == pytest.approx(math.fsum(expected), rel=1e-12, abs=1e-12)


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

    def test_anisotropic_pose_ignores_a_power_of_two_scale(self, rng):
        # scaling Gamma leaves the fit alone; near the float maximum its
        # products with the moments would overflow
        huge = PrecisionMatrix(1.5e308, 1e150, 1.0)
        small = PrecisionMatrix(*(math.ldexp(v, -1000) for v in (huge.g00, huge.g01, huge.g11)))
        model = random_cloud(rng, 15, span=3.0)
        scan = Pose(0.1, -0.2, 0.3).apply(model) + rng.normal(0, 0.05, (15, 2))
        g = build_graph(scan, model, identity, 4.0)
        g.posterior[:] = rng.uniform(0.05, 1.0, g.edge_count)
        assert m_step(g, huge) == m_step(g, small)


@st.composite
def _oriented_gamma(draw, max_ratio):
    """Precision with eigenvalues ``lam`` and ``lam * ratio`` about any axis."""
    lam, ratio = draw(st.floats(0.1, 10.0)), draw(st.floats(1.0, max_ratio))
    rot = Pose(0.0, 0.0, draw(st.floats(0.0, math.pi))).rotation()
    return PrecisionMatrix.from_matrix(rot @ np.diag([lam, lam * ratio]) @ rot.T)


@st.composite
def _weighted_graph(draw):
    """A gated graph with random posteriors, its model possibly nearly collinear
    and its scan either unrelated to the model or a noisy rigid copy of it."""
    model = draw(_cloud(25))
    if draw(st.booleans()):
        model[:, 1] *= draw(st.floats(0.0, 1e-3))
    if draw(st.booleans()):
        scan = draw(_cloud(25))
    else:
        pose = Pose(*draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                                    st.floats(-math.pi, math.pi))))
        noise = draw(hnp.arrays(np.float64, model.shape, elements=st.floats(-0.1, 0.1)))
        scan = pose.apply(model) + noise
    g = build_graph(scan, model, identity, draw(st.floats(0.1, 3.0)))
    g.posterior[:] = draw(hnp.arrays(np.float64, g.edge_count, elements=st.floats(0.0, 1.0)))
    return g


@settings(deadline=None, max_examples=40)
@given(g=_weighted_graph(), gamma=_oriented_gamma(1e3))
def test_anisotropic_m_step_is_stationary_and_no_worse(g, gamma):
    assume(g.posterior.sum() > 1e-3)
    objective = functools.partial(fit_objective, g, gamma)
    fitted = m_step(g, gamma).to_array()
    f_fit = objective(fitted)
    # Finite differences of the full 3-D objective, independent of the
    # rotation-only reduction m_step solves; tolerances scale with its size.
    size = 1.0 + f_fit + float(g.posterior.sum()) * gamma.eigenvalues()[1]
    assert np.linalg.norm(fd_gradient(objective, fitted)) < 1e-6 * size
    f_seed = objective(m_step(g, eye).to_array())
    assert f_fit <= f_seed + 1e-10 * max(1.0, f_seed)
    f_slow = objective(numerical_m_step(g, gamma).to_array())
    assert f_fit <= f_slow + 1e-10 * max(1.0, f_slow)


def _rotation_objective(gamma, a, b, theta):
    """``tr(Gamma R B R^T) - 2 tr(Gamma R A)`` at each angle of ``theta``, directly."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.moveaxis(np.array([[c, -s], [s, c]]), -1, 0)
    g = gamma.as_matrix()
    return (np.einsum("ij,nji->n", g, rot @ b @ rot.transpose(0, 2, 1))
            - 2.0 * np.einsum("ij,nji->n", g, rot @ a))


@st.composite
def _rotation_hard_case(draw):
    """``(gamma, A, B, seed)`` near the hard cases of the rotation solve.

    With ``Gamma = diag(1, r)``, ``B = diag(2 d, 0)`` and ``A = [[a00, 0], [a10,
    0]]``, the objective is ``u cos 2theta - 2 (b1 cos theta + b2 sin theta)``
    up to a constant, with ``u = (1 - r) d``, ``b1 = a00`` and ``b2 = -a10``: ``b2``
    is put at 0, at a subnormal or at a tiny value, ``|b1|`` at ``2 u`` to
    within 1e-9 or anywhere, and ``u`` (rho) or ``b1`` (beta) may shrink to 0.
    All three matrices are then turned alike, which leaves the objective as it
    is up to rounding."""
    r = draw(st.floats(1e-8, 0.5))
    d = draw(st.sampled_from([1.0, 1e-9, 1e-100, 0.0]))
    u = (1.0 - r) * d
    sign = st.sampled_from([-1.0, 1.0])
    a00 = draw(st.one_of(
        st.tuples(sign, st.floats(-1e-9, 1e-9)).map(lambda f: f[0] * 2.0 * u * (1.0 + f[1])),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0).map(lambda x: 1e-12 * x),
        st.just(0.0)))
    b2 = draw(st.one_of(st.sampled_from([0.0, 1e-310, 5e-324]),
                        st.floats(-300.0, -8.0).map(lambda k: 10.0 ** k)))
    a10 = draw(sign) * b2
    rot = Pose(0.0, 0.0, draw(st.one_of(st.just(0.0), st.floats(0.0, math.pi)))).rotation()
    gamma = PrecisionMatrix.from_matrix(rot @ np.diag([1.0, r]) @ rot.T)
    a = rot @ np.array([[a00, 0.0], [a10, 0.0]]) @ rot.T
    b = rot @ np.diag([2.0 * d, 0.0]) @ rot.T
    # the isotropic fit, as m_step seeds the solve
    return gamma, a, b, math.atan2(a[0, 1] - a[1, 0], a[0, 0] + a[1, 1])


@settings(deadline=None, max_examples=300)
@given(case=_rotation_hard_case())
@example(case=(PrecisionMatrix(1.0, 0.0, 0.5), np.array([[0.2, 0.0], [1e-310, 0.0]]),
               np.diag([2.0, 0.0]), 0.0))
def test_rotation_solve_is_global_near_its_hard_cases(case):
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    gamma, a, b, seed = case
    theta = emscan.em._anisotropic_theta(gamma, a, b, seed)
    # an independent minimum: a dense grid, its two lowest local minima (f
    # has at most two) polished on the grid cells beside them
    grid = np.linspace(-math.pi, math.pi, 2049)
    f_grid = _rotation_objective(gamma, a, b, grid)
    f_min = float(f_grid.min())
    local = np.flatnonzero((f_grid <= np.roll(f_grid, 1)) & (f_grid <= np.roll(f_grid, -1)))
    for k in local[np.argsort(f_grid[local])[:2]]:
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        polished = minimize_scalar(lambda t: _rotation_objective(gamma, a, b, np.array([t]))[0],
                                   bounds=(lo, hi), method="bounded", options={"xatol": 1e-13})
        f_min = min(f_min, float(polished.fun))
    # relative to the size of f's terms, plus a floor where their products
    # with Gamma underflow
    g_size = float(np.abs(gamma.as_matrix()).sum())
    tol = g_size * (1e-12 * (np.abs(a).sum() + np.abs(b).sum()) + 2.0 ** -1060)
    f_theta, f_seed = _rotation_objective(gamma, a, b, np.array([theta, seed]))
    assert f_theta <= f_min + tol
    assert f_theta <= f_seed + tol


@pytest.mark.parametrize("a00, a10", [(1.75, -1e-310), (1.75, -1e-315), (1.75, -1e-323),
                                      (1.85, -1e-310)])
def test_rotation_solve_is_global_for_a_subnormal_b2(a00, a10):
    # Newton's steps from the subnormal lower bound on its root overflowed, and
    # the solve kept the seed at f = -1.5 against f(+-0.3672) = -1.50833 for A00 = 1.75.
    gamma, b = PrecisionMatrix(1.0, 0.0, 0.0625), np.diag([2.0, 0.0])
    a = np.array([[a00, 0.0], [a10, 0.0]])
    theta = emscan.em._anisotropic_theta(gamma, a, b, 0.0)
    f_grid = _rotation_objective(gamma, a, b, np.linspace(-math.pi, math.pi, 20001))
    assert _rotation_objective(gamma, a, b, np.array([theta]))[0] <= f_grid.min() + 1e-12


@st.composite
def _anchored_weighted_graph(draw):
    """A graph gated at the identity or near the truth, up to 100 m from the
    origin, with random posteriors of which some are flushed to zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    model = rng.uniform(-3.0, 3.0, (draw(st.integers(3, 25)), 2)) + draw(
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)))
    truth = Pose(*draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                                 st.floats(-math.pi, math.pi))))
    anchor = truth.compose(Pose(*draw(st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1),
                                                st.floats(-0.1, 0.1)))))
    g = build_graph(truth.apply(model) + rng.uniform(-0.1, 0.1, model.shape), model,
                    draw(st.sampled_from([identity, anchor])), draw(st.floats(0.3, 3.0)))
    g.posterior[:] = rng.uniform(0.0, 1.0, g.edge_count) * (rng.uniform(size=g.edge_count)
                                                           < draw(st.floats(0.2, 1.0)))
    return g


@settings(deadline=None, max_examples=150)
@given(g=_anchored_weighted_graph(), anisotropic=st.booleans(), gamma=_oriented_gamma(1e3))
def test_m_step_matches_the_column_m_step(g, anisotropic, gamma):
    gamma = gamma if anisotropic else PrecisionMatrix.isotropic(0.05)
    # the weighted pairs must pin the rotation: the model spreads both ways,
    # and the cross moment that the isotropic fit reads is not lost in rounding
    w, total = g.posterior, float(g.posterior.sum())
    assume(total > 0.1)
    mt, st_ = (pts - w @ pts / total for pts in (g.model[g.model_idx], g.scan[g.scan_idx]))
    a, b = (mt.T * w) @ st_, (mt.T * w) @ mt
    assume(np.linalg.eigvalsh(b)[0] > 1e-2 * total)
    assume(math.hypot(a[0, 1] - a[1, 0], a[0, 0] + a[1, 1]) > 1e-2 * total)
    fast, column = m_step(g, gamma), column_m_step(g, gamma)
    scale = 1.0 + float(np.abs(g.model).max())
    assert abs(fast.tx - column.tx) <= 1e-12 * scale
    assert abs(fast.ty - column.ty) <= 1e-12 * scale
    assert abs(wrap_angle(fast.theta - column.theta)) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(shape=st.sampled_from(SHAPES), n=st.integers(20, 80),
       pert=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.2, 0.2)),
       sigma=st.floats(0.01, 0.1), anisotropic=st.booleans(),
       gamma_shape=_oriented_gamma(1e2), seed=st.integers(0, 2**16))
def test_default_mode_trace_is_monotone(shape, n, pert, sigma, anisotropic, gamma_shape, seed):
    model, scan, _ = make_scene(shape, n, Pose(*pert), noise_sigma=sigma, seed=seed)
    gamma = PrecisionMatrix.isotropic(sigma)
    if anisotropic:
        gamma = PrecisionMatrix.from_matrix(gamma_shape.as_matrix() / (sigma * sigma))
    try:
        res = register(scan, model, identity, EmConfig(gamma=gamma, window_w=0.5))
    except NoCorrespondences:
        return      # the gate at identity found nothing: no trace to check
    assert (np.diff(res.loglik_trace) >= -1e-9).all()


@pytest.mark.parametrize("seed", [229, 288, 336, 370])
def test_regating_does_not_stop_at_a_gate_change(seed):
    # Scenes where scoring each pose on the previous sweep's gate ended the
    # run after 2 sweeps with converged=True, 33-68 mm off the truth.
    gamma = PrecisionMatrix(2500.0, 375.0, 625.0)
    rng = np.random.default_rng(seed)
    r, a = 0.15 * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
    truth = Pose(r * math.cos(a), r * math.sin(a), math.radians(rng.uniform(-4.0, 4.0)))
    model, scan, _ = make_scene("l-shape", 120, truth, outlier_fraction=0.05, seed=seed)
    scan = scan + rng.multivariate_normal(np.zeros(2), np.linalg.inv(gamma.as_matrix()), 120)
    res = register(scan, model, identity,
                   EmConfig(gamma=gamma, window_w=0.3, regate_each_iteration=True))
    assert math.hypot(res.pose.tx - truth.tx, res.pose.ty - truth.ty) < 0.02
    assert abs(wrap_angle(res.pose.theta - truth.theta)) < math.radians(1.0)
    assert res.iterations > 2


@settings(deadline=None, max_examples=100)
@given(shape=st.sampled_from(SHAPES), regate=st.booleans(),
       motion=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                        st.floats(-math.pi, math.pi)),
       seed=st.integers(0, 2**16))
def test_registration_is_rigidly_equivariant(shape, regate, motion, seed):
    # Moving the scan and the start by T moves the answer by T: the gate,
    # the isotropic residual norms and the closed-form fit are all invariant.
    rng = np.random.default_rng(seed)
    model, scan, _ = make_scene(shape, 40, random_pose(rng, 0.2, 0.1),
                                noise_sigma=0.02, seed=seed)
    pose0 = random_pose(rng, 0.05, 0.05)
    cfg = EmConfig.isotropic(0.05, window_w=0.4, regate_each_iteration=regate)
    t = Pose(*motion)
    base = register(scan, model, pose0, cfg)
    moved = register(t.apply(scan), model, t.compose(pose0), cfg)
    assert_pose_close(moved.pose, t.compose(base.pose), 1e-9)
    assert moved.iterations == base.iterations


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


@settings(deadline=None, max_examples=80)
@given(scene=_anchored_scene())
def test_covariance_off_the_features_matches_the_direct_formula(scene):
    g, pose, radius = scene
    e_step(g, pose, PrecisionMatrix.isotropic(radius / 3.0))
    cov, n_p = residual_covariance(g, pose)
    ref, n_ref = slow_residual_covariance(g, pose)
    assert n_p == n_ref
    assert cov[0, 1] == cov[1, 0]
    # Each residual, off the features or as s - pose(m), errs by a few ulps of
    # |s| + |m| + |t0| + |t| (as in ``_loglik_rounding``), taken as 32.
    eps, anchor = float(np.finfo(float).eps), g.anchor
    scan, model = g.scan[g.scan_idx], g.model[g.model_idx]
    err = 32.0 * eps * (np.abs(scan).sum(axis=1) + np.abs(model).sum(axis=1)
                        + (abs(pose.tx) + abs(pose.ty) + abs(anchor.tx) + abs(anchor.ty)))
    size = np.abs(scan - pose.apply(model)).sum(axis=1)
    tol = g.posterior @ (2.0 * size * err + err * err) / n_p + 16.0 * eps * np.abs(ref)
    assert np.all(np.abs(cov - ref) <= tol)


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

    def test_forward_reverse_consistency(self):
        # noise-free circle: forward and reverse registrations must invert
        g = Pose(0.05, -0.03, math.radians(2.0))
        model = sample_contour("circle", 120)
        scan = g.apply(model)
        cfg = EmConfig.isotropic(0.02, window_w=0.5, convergence_epsilon=1e-9)
        forward = register(scan, model, identity, cfg).pose
        reverse = register(model, scan, identity, cfg).pose
        assert_pose_close(forward.compose(reverse), identity, atol=1e-5)


    @pytest.mark.parametrize("truth, seed", [(Pose(0.3, -0.2, 0.0873), 7),
                                             (Pose(0.03, -0.02, math.radians(1.5)), 3)],
                             ids=["readme", "track"])
    def test_returned_posteriors_hold_no_subnormal(self, truth, seed):
        # the README scene, and a tracking step from the previous estimate
        model, scan, _ = make_scene("rectangle", 200, truth, noise_sigma=0.02, seed=seed)
        result = register(scan, model, identity, EmConfig.isotropic(0.02, window_w=1.0))
        w = result.graph.posterior
        assert np.count_nonzero(w == 0.0) > 0       # the far tail is there, flushed
        assert np.all((w == 0.0) | (w >= 2.0 ** -1022))


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

    @pytest.mark.parametrize("window", [math.inf, math.nan])
    def test_window_must_be_finite(self, window):
        with pytest.raises(ValueError, match="window_w"):
            EmConfig.isotropic(0.1, window_w=window)

    def test_iteration_budget_must_be_an_integer(self):
        for budget in (2.5, 3.0, "3"):
            with pytest.raises(TypeError, match="max_iterations"):
                EmConfig.isotropic(0.1, max_iterations=budget)
        model, scan, _ = make_scene("rectangle", 200, Pose(0.3, -0.2, 0.09),
                                    noise_sigma=0.02, seed=1)
        config = EmConfig.isotropic(0.02, window_w=1.0, max_iterations=np.int64(3),
                                    convergence_epsilon=1e-300)
        result = register(scan, model, identity, config)
        assert result.iterations == 3 and not result.converged

    @pytest.mark.parametrize("budget", [True, False, np.True_])
    def test_iteration_budget_is_not_a_bool(self, budget):
        # bool is an Integral, so True would pass as a one-M-step budget
        with pytest.raises(TypeError, match="max_iterations"):
            EmConfig.isotropic(0.1, max_iterations=budget)

    @pytest.mark.parametrize("regate", ["false", "", 0, 1, None])
    def test_regating_switch_must_be_a_bool(self, regate):
        with pytest.raises(TypeError, match="regate_each_iteration"):
            EmConfig.isotropic(0.1, regate_each_iteration=regate)
        for switch in (True, False, np.True_):
            assert EmConfig.isotropic(0.1, regate_each_iteration=switch)


class TestFixedPointRegating:
    """Regating runs EM to a fixed point on each gate, then rebuilds the gate
    there, and converges only once the rebuilt gate has the same edges."""

    def test_narrow_window_scene_reaches_the_truth(self):
        # Stopping on a log-likelihood difference taken across two gates
        # ended this run after 1 sweep, 158 mm off the truth.
        truth = Pose(0.15, -0.1, math.radians(4.0))
        model, scan, _ = make_scene("l-shape", 200, truth, noise_sigma=0.01, seed=13)
        res = register(scan, model, identity,
                       EmConfig.isotropic(0.02, window_w=0.1, regate_each_iteration=True))
        assert res.converged
        assert math.hypot(res.pose.tx - truth.tx, res.pose.ty - truth.ty) < 0.02
        assert abs(wrap_angle(res.pose.theta - truth.theta)) < math.radians(1.0)

    @settings(deadline=None, max_examples=60)
    @given(shape=st.sampled_from(SHAPES), anisotropic=st.booleans(),
           window=st.floats(0.1, 0.5), seed=st.integers(0, 2**16))
    def test_converged_run_ends_on_the_gate_at_its_pose(self, shape, anisotropic,
                                                         window, seed):
        rng = np.random.default_rng(seed)
        model, scan, _ = make_scene(shape, 60, random_pose(rng, 0.15, 0.08),
                                    noise_sigma=0.02, outlier_fraction=0.05, seed=seed)
        gamma = PrecisionMatrix(2500.0, 375.0, 625.0) if anisotropic \
            else PrecisionMatrix.isotropic(0.02)
        try:
            res = register(scan, model, identity,
                           EmConfig(gamma=gamma, window_w=window, regate_each_iteration=True))
        except NoCorrespondences:
            return      # a gate found nothing
        assert len(res.loglik_trace) == res.iterations + 1
        assume(res.converged)
        assert build_graph(scan, model, res.pose, window).edge_set() == res.graph.edge_set()

    @pytest.mark.parametrize(
        "regate, budget", [(True, b) for b in range(1, 6)] + [(False, b) for b in range(1, 6)],
        ids=[str(b) for b in range(1, 6)] + [f"gated-once-{b}" for b in range(1, 6)])
    def test_budget_ends_inside_an_extrapolation_cycle(self, regate, budget):
        # Each cycle is two M-steps and one extrapolation, with or without
        # regating; budgets 1, 3 and 5 end after its first M-step, 2 and 4
        # before its extrapolation.
        model, scan, _ = make_scene("l-shape", 200, Pose(0.15, -0.1, math.radians(4.0)),
                                    noise_sigma=0.01, seed=13)
        cfg = EmConfig.isotropic(0.02, window_w=0.1, regate_each_iteration=regate,
                                 max_iterations=budget, convergence_epsilon=1e-30)
        res = register(scan, model, identity, cfg)
        assert res.iterations == budget
        assert not res.converged
        assert len(res.loglik_trace) == budget + 1
        # the returned graph's posterior is at the returned pose
        posterior = res.graph.posterior.copy()
        e_step(res.graph, res.pose, cfg.gamma)
        np.testing.assert_array_equal(res.graph.posterior, posterior)

    @pytest.mark.parametrize("regate", [False, True], ids=["gated-once", "regate"])
    def test_a_drop_on_a_fixed_gate_is_not_convergence(self, regate, monkeypatch, caplog):
        # An M-step that moves away from the optimum can only be a fault.
        calls = []

        def faulty_m_step(graph, gamma):
            calls.append(None)
            pose = m_step(graph, gamma)
            return Pose(pose.tx + 0.05, pose.ty, pose.theta) if len(calls) == 3 else pose

        monkeypatch.setattr(emscan.em, "m_step", faulty_m_step)
        truth = Pose(0.05, -0.03, 0.02)
        model, scan, _ = make_scene("rectangle", 150, truth, noise_sigma=0.02, seed=5)
        cfg = EmConfig.isotropic(0.02, window_w=1.0, regate_each_iteration=regate)
        with caplog.at_level("WARNING", logger="emscan.em"):
            res = register(scan, model, identity, cfg)
        assert not res.converged
        assert res.iterations == 3
        assert res.loglik_trace[-1] < res.loglik_trace[-2]
        assert "fell" in caplog.text
