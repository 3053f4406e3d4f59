"""Slow, transparent reference implementations for tests and field debugging.

Everything here recomputes the library's answers from first principles:
exhaustive neighbor scans, a dense all-pairs responsibility matrix, and a
derivative-free pose fit.  None of it touches the grid index, so agreement
with the fast path is meaningful evidence; ``dense_em_register`` shares only
the EM loop with ``register``.  Expect O(n^2) cost or worse;
these ship with the library because the command line exposes them through
``--oracle`` for debugging in the field.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .em import EmConfig, RegistrationResult, _run_em
from .errors import (
    DegenerateGeometry,
    EmptyInput,
    NoCorrespondences,
    NoInliers,
    NonPositiveRadius,
)
from .geometry import Point, Pose, _within_radius, as_point_array, mahalanobis_sq
from .graph import MatchGraph

__all__ = [
    "brute_force_neighbors",
    "dense_em_register",
    "numerical_m_step",
    "slow_residual_covariance",
]


def brute_force_neighbors(points, q, w: float) -> np.ndarray:
    """Exhaustive scan for indices with ``||points[i] - q|| < w``.

    Uses the grid index's distance test so both sides of the equivalence
    check round identically.
    """
    if not w > 0.0:
        raise NonPositiveRadius(f"radius must be > 0, got {w}")
    pts = as_point_array(points)
    qa = np.asarray(tuple(q) if isinstance(q, Point) else q, dtype=float)
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return np.nonzero(_within_radius(pts - qa, w))[0].astype(np.int64)


def _dense_gate(scan, model, pose, w) -> MatchGraph:
    """All-pairs window gate with uniform per-row priors."""
    if scan.shape[0] == 0:
        raise EmptyInput("empty scan")
    if model.shape[0] == 0:
        raise EmptyInput("empty model")
    adjacency = _within_radius(scan[:, None, :] - pose.apply(model)[None, :, :], w)
    return MatchGraph.from_edges(scan, model, w, *np.nonzero(adjacency))


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
    expo = np.where(adjacency, log_prior - 0.5 * mahalanobis_sq(diff, gamma), -np.inf)
    row_max = np.where(nonempty, expo.max(axis=1), 0.0)
    shifted = np.where(adjacency, np.exp(expo - row_max[:, None]), 0.0)
    graph.posterior[:] = shifted[adjacency] / shifted.sum(axis=1)[graph.scan_idx]
    total = 0.0
    for j in np.nonzero(nonempty)[0]:
        row_max = expo[j].max()
        total += row_max + math.log(np.exp(expo[j] - row_max).sum())
    return total


def _dense_fit(graph, gamma):
    scan, model = graph.scan, graph.model
    weights = _dense(graph, graph.posterior, 0.0)
    total = float(weights.sum())
    if not np.any(weights > 0.0):
        raise NoCorrespondences("all responsibilities are zero")
    if total < 1e-12:
        raise DegenerateGeometry(f"total correspondence weight {total:.3e} is too small")
    row_w = weights.sum(axis=1)
    col_w = weights.sum(axis=0)
    c_s = row_w @ scan / total
    c_m = col_w @ model / total
    st = scan - c_s
    mt = model - c_m
    h = mt.T @ weights.T @ st
    theta = math.atan2(h[0, 1] - h[1, 0], h[0, 0] + h[1, 1])
    c, s = math.cos(theta), math.sin(theta)
    pose = Pose(c_s[0] - (c * c_m[0] - s * c_m[1]),
                c_s[1] - (s * c_m[0] + c * c_m[1]),
                theta)
    if not gamma.is_isotropic:
        rows, cols = np.nonzero(weights > 0.0)
        pose = _descend(scan[rows], model[cols], weights[rows, cols],
                        gamma, pose.to_array(), grad_tol=1e-9, max_steps=200)
    return pose


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
    regating, the gamma refit, the trace and the stopping rule, so the
    contract matches ``register`` exactly, including error behavior and the
    meaning of the optional modes.

    Known limitation, shared with ``register``: under
    ``regate_each_iteration`` the stopping rule compares log-likelihoods
    taken on different graphs, which can end a run early.
    """
    return _run_em(as_point_array(scan), as_point_array(model), pose0, config,
                   _dense_gate, _dense_e_step, _dense_fit, _dense_covariance)


def slow_residual_covariance(graph: MatchGraph, pose: Pose) -> tuple[np.ndarray, int]:
    """Edge-by-edge evaluation of the weighted residual outer-product average."""
    inlier_rows = {int(j) for j in graph.scan_idx}
    n_p = len(inlier_rows)
    if n_p == 0:
        raise NoInliers("every scan point is an outlier")
    acc = np.zeros((2, 2))
    for e in range(graph.edge_count):
        s = graph.scan[graph.scan_idx[e]]
        m = pose.apply(graph.model[graph.model_idx[e]])
        r = s - m
        acc += graph.posterior[e] * np.outer(r, r)
    return acc / n_p, n_p


def _fd_gradient(fun, y, h=1e-6) -> np.ndarray:
    grad = np.zeros(3)
    for i in range(3):
        up, dn = y.copy(), y.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad


def _fd_hessian(fun, y, h=1e-4) -> np.ndarray:
    hess = np.zeros((3, 3))
    f0 = fun(y)
    for i in range(3):
        up, dn = y.copy(), y.copy()
        up[i] += h
        dn[i] -= h
        hess[i, i] = (fun(up) - 2.0 * f0 + fun(dn)) / (h * h)
    for i in range(3):
        for j in range(i + 1, 3):
            pp, pm, mp, mm = y.copy(), y.copy(), y.copy(), y.copy()
            pp[[i, j]] += h
            mm[[i, j]] -= h
            pm[i] += h
            pm[j] -= h
            mp[i] -= h
            mp[j] += h
            hess[i, j] = hess[j, i] = (fun(pp) - fun(pm) - fun(mp) + fun(mm)) / (4.0 * h * h)
    return hess


def _fit_objective(scan_e, model_e, w, gamma, y) -> float:
    """The weighted fit objective at pose components ``y = (tx, ty, theta)``."""
    c, s = math.cos(y[2]), math.sin(y[2])
    rot = np.array([[c, -s], [s, c]])
    residual = scan_e - model_e @ rot.T - y[:2]
    return float(w @ mahalanobis_sq(residual, gamma))


def _descend(scan_e, model_e, w, gamma, y0, *, grad_tol=1e-8, max_steps=60):
    """Finite-difference Newton descent on the weighted fit objective."""
    fun = functools.partial(_fit_objective, scan_e, model_e, w, gamma)
    y = np.asarray(y0, dtype=float).copy()
    value = fun(y)
    for _ in range(max_steps):
        grad = _fd_gradient(fun, y)
        if np.linalg.norm(grad) < grad_tol:
            break
        hess = _fd_hessian(fun, y)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        alpha = 1.0
        improved = False
        while alpha > 1e-10:
            trial = y + alpha * step
            trial_value = fun(trial)
            if trial_value < value:
                y, value = trial, trial_value
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return Pose.from_array(y)


def numerical_m_step(graph: MatchGraph, gamma, *, angle_samples: int = 72) -> Pose:
    """Minimize the weighted fit objective by grid search plus descent.

    Scans ``angle_samples`` rotations; for each one the translation is
    centered on the weighted-centroid offset and jittered over a small
    grid, and the best cell seeds a finite-difference Newton refinement.
    Matches ``m_step`` to about 1e-5 in pose on sane instances while
    sharing none of its algebra.
    """
    w = graph.posterior
    if graph.edge_count == 0 or not np.any(w > 0.0):
        raise NoCorrespondences("all responsibilities are zero")
    total = float(w.sum())
    if total < 1e-12:
        raise DegenerateGeometry(f"total correspondence weight {total:.3e} is too small")
    scan_e = graph.scan[graph.scan_idx]
    model_e = graph.model[graph.model_idx]
    c_s = w @ scan_e / total
    c_m = w @ model_e / total
    offsets = (-0.25, 0.0, 0.25)
    best_y, best_value = None, np.inf
    for theta in np.linspace(-math.pi, math.pi, angle_samples, endpoint=False):
        c, s = math.cos(theta), math.sin(theta)
        center = c_s - np.array([c * c_m[0] - s * c_m[1], s * c_m[0] + c * c_m[1]])
        for dx in offsets:
            for dy in offsets:
                y = np.array([center[0] + dx, center[1] + dy, theta])
                value = _fit_objective(scan_e, model_e, w, gamma, y)
                if value < best_value:
                    best_y, best_value = y, value
    return _descend(scan_e, model_e, w, gamma, best_y)
