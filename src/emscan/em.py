"""Expectation-maximization registration of a scan to a model point set.

One registration call gates candidate correspondences once at the initial
pose, then alternates two steps until the marginal log-likelihood stops
improving:

* E-step: per-edge responsibilities, the posterior probability that a scan
  point measures a given gated model point under the current pose.
* M-step: the pose minimizing the responsibility-weighted squared
  Mahalanobis residual sum, closed-form for isotropic precision and
  Gauss-Newton refined otherwise.

Each sweep costs O(E) over the gated edges, which is O(n) in the scan size
for bounded-density scenes.  After convergence the residual covariance is
the responsibility-weighted average outer product of the residuals over
the n_P scan points that have at least one correspondence.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
    DegenerateRow,
    NoCorrespondences,
    NoInliers,
)
from .geometry import Pose, PrecisionMatrix, as_point_array, mahalanobis_sq
from .graph import MatchGraph, _row_max, _row_sum, build_graph

__all__ = [
    "EmConfig",
    "RegistrationResult",
    "e_step",
    "m_step",
    "register",
    "residual_covariance",
]

logger = logging.getLogger(__name__)

DEFAULT_MAX_ITERATIONS = 50
DEFAULT_CONVERGENCE_EPSILON = 1e-6
#: Gate radius as a multiple of the noise std when no window is given.
GATE_SIGMA_MULTIPLE = 3.0

_MIN_TOTAL_WEIGHT = 1e-12
_DEEP_TAIL_LOG = -700.0
_GN_GRAD_TOL = 1e-9
_GN_MAX_STEPS = 200


@dataclass(frozen=True)
class EmConfig:
    """Registration settings.

    ``window_w`` of None selects the default gate radius of three times the
    largest noise std implied by ``gamma`` (3 sigma tail mass is
    negligible).  ``regate_each_iteration`` rebuilds the gate at the
    current pose every sweep instead of holding the initial gate fixed;
    ``reestimate_gamma`` refits the precision from the residual covariance
    between sweeps.  Both are off by default, and the log-likelihood trace
    is guaranteed non-decreasing only with both off.
    """

    gamma: PrecisionMatrix
    window_w: float | None = None
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    convergence_epsilon: float = DEFAULT_CONVERGENCE_EPSILON
    regate_each_iteration: bool = False
    reestimate_gamma: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.gamma, PrecisionMatrix):
            raise TypeError("gamma must be a PrecisionMatrix")
        if self.window_w is not None and not self.window_w > 0.0:
            raise ValueError(f"window_w must be > 0, got {self.window_w}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.convergence_epsilon > 0.0:
            raise ValueError(
                f"convergence_epsilon must be > 0, got {self.convergence_epsilon}"
            )

    @classmethod
    def isotropic(cls, sigma: float, **kwargs) -> "EmConfig":
        """Config with precision ``I / sigma^2``."""
        return cls(gamma=PrecisionMatrix.isotropic(sigma), **kwargs)

    def resolved_window(self) -> float:
        if self.window_w is not None:
            return float(self.window_w)
        return GATE_SIGMA_MULTIPLE * self.gamma.max_noise_sigma()


@dataclass
class RegistrationResult:
    """Outcome of one registration call.

    ``loglik_trace`` starts at the initial pose's log-likelihood and gains
    one entry per sweep; in the default configuration it is non-decreasing
    up to float noise.  ``converged=False`` is a valid outcome, not an
    error: it means the iteration budget ran out first.
    """

    pose: Pose
    residual_covariance: np.ndarray
    iterations: int
    loglik_trace: np.ndarray
    n_inliers: int
    converged: bool


def _edge_exponents(graph: MatchGraph, pose: Pose, gamma: PrecisionMatrix) -> np.ndarray:
    """log(prior) - ||s - pose(m)||^2_Gamma / 2 for every edge."""
    residual = graph.scan_e - pose.apply(graph.model_e)
    return np.log(graph.prior) - 0.5 * mahalanobis_sq(residual, gamma)


def e_step(graph: MatchGraph, pose: Pose, gamma: PrecisionMatrix) -> float:
    """Update ``graph.posterior`` in place and return the log-likelihood at ``pose``.

    Each nonempty row j becomes
    ``prior_jk * density_jk / sum_k' prior_jk' * density_jk'``, normalized
    in log domain with a per-row max shift so rows far from the model stay
    exactly normalized instead of underflowing.  Rows without edges are
    untouched (outliers own no responsibility mass).

    The return value is the marginal log-likelihood, the sum over nonempty
    rows of ``log sum_k prior_jk * density_jk``, read off the same per-row
    max and denominator.  Outlier rows contribute zero, and a graph without
    edges scores exactly 0.  The dropped Gaussian normalization constant
    shifts it by a pose-independent amount.
    """
    if graph.edge_count == 0:
        return 0.0
    expo = _edge_exponents(graph, pose, gamma)
    row_max = _row_max(expo, graph.row_start)
    shifted = np.exp(expo - row_max[graph.scan_idx])
    denom = _row_sum(shifted, graph.row_start)
    nonempty = graph.neighbor_counts > 0
    loglik = float(np.sum(row_max[nonempty] + np.log(denom[nonempty])))

    deep = nonempty & (row_max < _DEEP_TAIL_LOG)
    if deep.any():
        logger.debug(
            "%d scan rows have best log-density below %.0f; responsibilities "
            "still normalized via max-shift", int(deep.sum()), _DEEP_TAIL_LOG,
        )

    posterior = shifted / denom[graph.scan_idx]
    if not np.isfinite(posterior).all():
        # Max-shift keeps each nonempty row's denominator >= 1, so this is
        # only reachable through corrupt graph state.  Keep priors for the
        # broken rows; give up if even those are unusable.
        bad_rows = ~np.isfinite(denom) | (denom <= 0.0)
        bad_edges = bad_rows[graph.scan_idx]
        logger.warning("responsibility normalization failed for %d rows; keeping priors",
                       int(bad_rows.sum()))
        posterior[bad_edges] = graph.prior[bad_edges]
        if not np.isfinite(posterior).all():
            raise DegenerateRow("responsibility row cannot be normalized")
    graph.posterior[:] = posterior
    return loglik


def _weighted_pairs(graph: MatchGraph):
    w = graph.posterior
    if graph.edge_count == 0 or not np.any(w > 0.0):
        raise NoCorrespondences("all responsibilities are zero")
    total = float(w.sum())
    if total < _MIN_TOTAL_WEIGHT:
        raise DegenerateGeometry(f"total correspondence weight {total:.3e} is too small")
    return graph.scan_e, graph.model_e, w, total


def m_step(graph: MatchGraph, gamma: PrecisionMatrix) -> Pose:
    """Pose minimizing ``sum_e posterior_e * ||s_e - T(m_e, y)||^2_Gamma``.

    For isotropic ``gamma`` the closed form is exact: with weighted
    centroids ``c_s``, ``c_m`` and cross-covariance
    ``H = sum_e w_e (m_e - c_m)(s_e - c_s)^T``, the optimum is
    ``theta* = atan2(H01 - H10, H00 + H11)`` and
    ``t* = c_s - Rot(theta*) c_m``.  Anisotropic precisions reweight the
    residual components, so the closed form only seeds a Gauss-Newton
    refinement run to gradient norm below 1e-9.
    """
    scan_e, model_e, w, total = _weighted_pairs(graph)
    c_s = w @ scan_e / total
    c_m = w @ model_e / total
    st = scan_e - c_s
    mt = model_e - c_m
    h = (mt * w[:, None]).T @ st
    theta = math.atan2(h[0, 1] - h[1, 0], h[0, 0] + h[1, 1])
    c, s = math.cos(theta), math.sin(theta)
    pose = Pose(c_s[0] - (c * c_m[0] - s * c_m[1]),
                c_s[1] - (s * c_m[0] + c * c_m[1]),
                theta)
    if not gamma.is_isotropic:
        pose = _gauss_newton_pose(scan_e, model_e, w, gamma, pose)
    return pose


def _objective(scan_e, model_e, w, gamma, y) -> float:
    """The M-step objective at pose components ``y = (tx, ty, theta)``."""
    c, s = math.cos(y[2]), math.sin(y[2])
    rot = np.array([[c, -s], [s, c]])
    residual = scan_e - model_e @ rot.T - y[:2]
    return float(w @ mahalanobis_sq(residual, gamma))


def _gauss_newton_pose(scan_e, model_e, w, gamma: PrecisionMatrix, start: Pose) -> Pose:
    """Refine the weighted fit for anisotropic precision."""
    gm = gamma.as_matrix()
    y = start.to_array()
    value = _objective(scan_e, model_e, w, gamma, y)
    for _ in range(_GN_MAX_STEPS):
        c, s = math.cos(y[2]), math.sin(y[2])
        rot = np.array([[c, -s], [s, c]])
        drot = np.array([[-s, -c], [c, -s]])
        residual = scan_e - model_e @ rot.T - y[:2]
        spun = model_e @ drot.T              # d(rot @ m)/dtheta per edge
        g_res = residual @ gm
        grad = -2.0 * np.array([
            w @ g_res[:, 0],
            w @ g_res[:, 1],
            w @ np.einsum("ij,ij->i", g_res, spun),
        ])
        if np.linalg.norm(grad) < _GN_GRAD_TOL:
            break
        g_spun = spun @ gm
        cross = (w[:, None] * g_spun).sum(axis=0)
        hess = np.empty((3, 3))
        hess[:2, :2] = 2.0 * w.sum() * gm
        hess[:2, 2] = 2.0 * cross
        hess[2, :2] = 2.0 * cross
        hess[2, 2] = 2.0 * float(w @ np.einsum("ij,ij->i", spun, g_spun))
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        alpha = 1.0
        while alpha > 1e-8:
            trial = y + alpha * step
            trial_value = _objective(scan_e, model_e, w, gamma, trial)
            if trial_value <= value + 1e-12:
                y, value = trial, trial_value
                break
            alpha *= 0.5
        else:
            break
    return Pose.from_array(y)


def residual_covariance(graph: MatchGraph, pose: Pose) -> tuple[np.ndarray, int]:
    """Responsibility-weighted residual outer-product average and n_P.

    Returns ``(1/n_P) * sum_e posterior_e r_e r_e^T`` with
    ``r_e = s_e - pose(m_e)`` and ``n_P`` the number of scan points holding
    at least one edge.  Symmetric PSD by construction; raises NoInliers
    when every scan point is an outlier.
    """
    n_p = graph.inlier_count
    if n_p == 0:
        raise NoInliers("every scan point is an outlier")
    residual = graph.scan_e - pose.apply(graph.model_e)
    w = graph.posterior
    rxx = float(w @ (residual[:, 0] * residual[:, 0]))
    rxy = float(w @ (residual[:, 0] * residual[:, 1]))
    ryy = float(w @ (residual[:, 1] * residual[:, 1]))
    return np.array([[rxx, rxy], [rxy, ryy]]) / n_p, n_p


def _scored_e_step(graph: MatchGraph, pose: Pose, gamma: PrecisionMatrix,
                   with_normalizer: bool) -> float:
    """``e_step``, returning the log-likelihood used by the stopping rule and trace.

    With a fixed precision the dropped Gaussian normalizer is a constant.
    When gamma is refit between sweeps the ``sqrt(det Gamma)`` normalizer
    varies, so it is restored to keep sweeps comparable (making the refit
    a proper conditional M-step with a monotone objective).
    """
    loglik = e_step(graph, pose, gamma)
    if with_normalizer:
        loglik += 0.5 * graph.inlier_count * math.log(gamma.det)
    return loglik


def register(scan, model, pose0: Pose, config: EmConfig) -> RegistrationResult:
    """Align ``scan`` to ``model`` starting from ``pose0``.

    Gates once at ``pose0`` (unless regating is enabled), then runs the
    E-step at ``pose0`` and sweeps M-step / E-step; each E-step also yields
    the log-likelihood at the pose it evaluated.  Stops when the
    log-likelihood gain of one sweep falls below
    ``config.convergence_epsilon`` or the iteration budget is exhausted.
    Per-sweep cost is O(E).

    Raises EmptyInput for empty point sets and NoCorrespondences when the
    gate leaves no candidate pairs.  Running out of iterations is reported
    via ``converged=False``, not an error.

    Reentrant: no shared state, so registrations of different targets may
    run concurrently on separate graphs.
    """
    scan = as_point_array(scan)
    model = as_point_array(model)
    window = config.resolved_window()
    graph = build_graph(scan, model, pose0, window)
    if graph.edge_count == 0:
        raise NoCorrespondences(
            f"no scan point is within {window} m of the model at the initial pose"
        )

    gamma = config.gamma
    pose = pose0
    loglik = _scored_e_step(graph, pose, gamma, config.reestimate_gamma)
    trace = [loglik]
    converged = False
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        if config.regate_each_iteration and iteration > 1:
            graph = build_graph(scan, model, pose, window)
            if graph.edge_count == 0:
                raise NoCorrespondences("regating left no candidate pairs")
            e_step(graph, pose, gamma)
        pose = m_step(graph, gamma)
        if config.reestimate_gamma:
            try:
                gamma = PrecisionMatrix.from_covariance(residual_covariance(graph, pose)[0])
            except ValueError:
                pass    # singular residuals: keep the previous precision
        new_loglik = _scored_e_step(graph, pose, gamma, config.reestimate_gamma)
        trace.append(new_loglik)
        iterations = iteration
        if new_loglik - loglik < config.convergence_epsilon:
            converged = True
            break
        loglik = new_loglik

    # The last E-step ran at the returned pose, so the covariance matches it.
    cov, n_p = residual_covariance(graph, pose)
    return RegistrationResult(
        pose=pose,
        residual_covariance=cov,
        iterations=iterations,
        loglik_trace=np.asarray(trace),
        n_inliers=n_p,
        converged=converged,
    )
