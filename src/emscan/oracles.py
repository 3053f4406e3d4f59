"""Slow all-pairs reference implementations of the neighbor gate and of
registration.

``brute_force_neighbors`` scans every point and ``dense_em_register`` runs
registration on dense (n, m) matrices: an all-pairs gate, responsibilities,
fit and covariance of its own, sharing only the EM loop with ``register``.
For anisotropic noise the fit is Newton's method with exact derivatives in
``(tx, ty, theta)``, not the fast path's rotation solve.  Neither touches the
grid index, so agreement with the fast path is meaningful evidence.  Expect
O(n^2) cost or worse; they ship with the library because the command line
exposes the dense registration through ``--oracle`` for debugging in the field.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .em import EmConfig, RegistrationResult, _run_em
from .errors import (
    DegenerateGeometry,
    DegenerateRow,
    EmptyInput,
    NoCorrespondences,
    NoInliers,
    NonPositiveRadius,
)
from .geometry import Pose, _as_xy, _within_radius, as_point_array, mahalanobis_sq
from .graph import MatchGraph

__all__ = ["brute_force_neighbors", "dense_em_register"]

_MAX_NEWTON_STEPS = 100


def brute_force_neighbors(points, q, w: float) -> np.ndarray:
    """Exhaustive scan for indices with ``||points[i] - q|| < w``.

    Uses the grid index's distance test, ``geometry._within_radius``, so
    both sides of the equivalence check round identically.
    """
    if not w > 0.0:
        raise NonPositiveRadius(f"radius must be > 0, got {w}")
    pts = as_point_array(points)
    qa = _as_xy(q)
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    d = pts - qa
    return np.nonzero(_within_radius(d[:, 0], d[:, 1], w))[0].astype(np.int64)


def _dense_gate(scan, model, pose, w) -> MatchGraph:
    """All-pairs window gate with uniform per-row priors."""
    if scan.shape[0] == 0:
        raise EmptyInput("empty scan")
    if model.shape[0] == 0:
        raise EmptyInput("empty model")
    d = scan[:, None, :] - pose.apply(model)[None, :, :]
    adjacency = _within_radius(d[..., 0], d[..., 1], w)
    return MatchGraph.from_edges(scan, model, *np.nonzero(adjacency), pose)


def _dense(graph, values, fill) -> np.ndarray:
    """The (n, m) matrix holding ``values`` at the edges and ``fill`` elsewhere."""
    out = np.full((graph.n_scan, graph.n_model), fill)
    out[graph.scan_idx, graph.model_idx] = values
    return out


def _dense_e_step(graph, pose, gamma) -> float:
    """Dense responsibilities into ``graph.posterior``; returns the
    log-likelihood, summed row by row."""
    adjacency = _dense(graph, True, False)
    degrees = adjacency.sum(axis=1)
    nonempty = degrees > 0
    log_prior = -np.log(np.maximum(degrees, 1))[:, None]
    diff = graph.scan[:, None, :] - pose.apply(graph.model)[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as the error below
        expo = np.where(adjacency, log_prior - 0.5 * mahalanobis_sq(diff, gamma), -np.inf)
        row_max = np.where(nonempty, expo.max(axis=1), 0.0)
        shifted = np.where(adjacency, np.exp(expo - row_max[:, None]), 0.0)
        total = 0.0
        for j in np.nonzero(nonempty)[0]:
            row_max = expo[j].max()
            total += row_max + math.log(np.exp(expo[j] - row_max).sum())
    if not math.isfinite(total):
        raise DegenerateRow(f"log-likelihood {total} is not finite")
    graph.posterior[:] = shifted[adjacency] / shifted.sum(axis=1)[graph.scan_idx]
    return total


def _dense_fit(graph, gamma):
    scan, model = graph.scan, graph.model
    weights = _dense(graph, graph.posterior, 0.0)
    total = float(weights.sum())
    if not np.any(weights > 0.0):
        raise NoCorrespondences("all responsibilities are zero")
    if total < 1e-12:
        raise DegenerateGeometry(f"total correspondence weight {total:.3e} is too small")
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as the error below
        row_w = weights.sum(axis=1)
        col_w = weights.sum(axis=0)
        c_s = row_w @ scan / total
        c_m = col_w @ model / total
        st = scan - c_s
        mt = model - c_m
        h = mt.T @ weights.T @ st
        moments = (h,) if gamma.is_isotropic else (h, mt.T @ (col_w[:, None] * mt))
        # the fast path's refusal, so both refuse the same scenes
        size = 2.0 * sum(float(np.abs(m).sum()) for m in moments)
    if not math.isfinite(size):
        raise DegenerateGeometry("the weighted moments of the pairs overflow")
    theta = math.atan2(h[0, 1] - h[1, 0], h[0, 0] + h[1, 1])
    tx = ty = 0.0
    if not gamma.is_isotropic:
        # Newton on the points centred at their weighted centroids, where the
        # best translation at ``theta`` is zero and no product outgrows the moments
        rows, cols = np.nonzero(weights > 0.0)
        tx, ty, theta = _descend(st[rows], mt[cols], weights[rows, cols], gamma,
                                 (0.0, 0.0, theta)).to_array()
    c, s = math.cos(theta), math.sin(theta)
    return Pose(c_s[0] + tx - (c * c_m[0] - s * c_m[1]),
                c_s[1] + ty - (s * c_m[0] + c * c_m[1]),
                theta)


def _dense_covariance(graph, pose):
    n_p = graph.inlier_count
    if n_p == 0:
        raise NoInliers("every scan point is an outlier")
    weights = _dense(graph, graph.posterior, 0.0)
    diff = graph.scan[:, None, :] - pose.apply(graph.model)[None, :, :]
    rxx = float((weights * diff[..., 0] * diff[..., 0]).sum())
    rxy = float((weights * diff[..., 0] * diff[..., 1]).sum())
    ryy = float((weights * diff[..., 1] * diff[..., 1]).sum())
    return np.array([[rxx, rxy], [rxy, ryy]]) / n_p, n_p


def dense_em_register(scan, model, pose0: Pose, config: EmConfig) -> RegistrationResult:
    """All-pairs registration: same math as ``register``, O(n*m) gating.

    The window gate is applied to the full distance matrix, and the
    responsibilities, log-likelihood, fit and covariance are computed on
    dense (n, m) matrices.  Both paths run one EM loop, which owns
    regating, the trace and the stopping rule, so the contract matches
    ``register`` exactly, including error behavior and the meaning of
    regating.
    """
    return _run_em(as_point_array(scan), as_point_array(model), pose0, config,
                   _dense_gate, _dense_e_step, _dense_fit, _dense_covariance)


def _fit_objective(scan_e, model_e, w, gamma, y) -> float:
    """The weighted fit objective at pose components ``y = (tx, ty, theta)``."""
    c, s = math.cos(y[2]), math.sin(y[2])
    rot = np.array([[c, -s], [s, c]])
    residual = scan_e - model_e @ rot.T - y[:2]
    return float(w @ mahalanobis_sq(residual, gamma))


def _fit_derivatives(scan_e, model_e, w, g, y):
    """Value, its rounding error, gradient and Hessian of ``sum_e w_e r_e^T g
    r_e`` with ``r_e = s_e - R m_e - t``, at ``y = (tx, ty, theta)``.

    With ``J_e = [I, R' m_e]`` and ``R'' = -R``, the gradient is ``-2 sum_e w_e
    J_e^T g r_e`` and the Hessian ``2 sum_e w_e (J_e^T g J_e + r_e^T g R m_e)``,
    the second term in the (theta, theta) entry only.
    """
    c, s = math.cos(y[2]), math.sin(y[2])
    rm = model_e @ np.array([[c, s], [-s, c]])
    drm = np.column_stack((-rm[:, 1], rm[:, 0]))
    residual = scan_e - rm - y[:2]
    gr, gd = residual @ g, drm @ g
    value = float(w @ (residual * gr).sum(axis=1))
    # residual entries err by about eps (|s| + |R m| + |t|), the value by that times 2 |g r|
    spans = np.abs(scan_e) + np.abs(rm) + np.abs(y[:2])
    slack = 8.0 * np.finfo(float).eps * (value + float(w @ (np.abs(gr) * spans).sum(axis=1)))
    grad = -2.0 * np.append(w @ gr, w @ (drm * gr).sum(axis=1))
    hess = np.empty((3, 3))
    hess[:2, :2] = 2.0 * w.sum() * g
    hess[:2, 2] = hess[2, :2] = 2.0 * (w @ gd)
    hess[2, 2] = 2.0 * (w @ ((drm * gd).sum(axis=1) + (rm * gr).sum(axis=1)))
    return value, slack, grad, hess


def _descend(scan_e, model_e, w, gamma, y0) -> Pose:
    """Newton descent with exact derivatives on the weighted fit objective.

    Works on Gamma scaled by the power of two that puts its largest entry in
    [0.5, 1): no step depends on that scale, and the objective cannot
    overflow.  A step is Newton's where the Hessian is positive definite and
    minus the gradient elsewhere, halved while it raises the objective by more
    than its rounding error.  Stops after the first step that does not lower
    the objective, as a step too small to move the pose never does.
    """
    g = np.ldexp(gamma.as_matrix(), -math.frexp(max(gamma.g00, gamma.g11))[1])
    derivatives = functools.partial(_fit_derivatives, scan_e, model_e, w, g)
    y = np.asarray(y0, dtype=float)
    value, slack, grad, hess = derivatives(y)
    for _ in range(_MAX_NEWTON_STEPS):
        try:
            np.linalg.cholesky(hess)
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        if not np.isfinite(step).all():
            break
        while not (found := derivatives(y + step))[0] <= value + slack:
            step = 0.5 * step
        y = y + step
        if not found[0] < value:
            break
        value, slack, grad, hess = found
    return Pose.from_array(y)
