"""Expectation-maximization registration of a scan to a model point set.

One registration call gates candidate correspondences once at the initial
pose, then alternates two steps until the marginal log-likelihood stops
improving:

* E-step: per-edge responsibilities, the posterior probability that a scan
  point measures a given gated model point under the current pose.
* M-step: the pose minimizing the responsibility-weighted squared
  Mahalanobis residual sum: closed form for isotropic precision, else a
  scalar minimization over the rotation from two weighted 2x2 moments.

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
_NEWTON_MAX_STEPS = 16
_MAX_TURN = math.pi / 8
#: Rounding error of the rotation objective's normalized slope.
_SLOPE_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class EmConfig:
    """Registration settings.

    ``window_w`` of None selects the default gate radius of three times the
    largest noise std implied by ``gamma`` (3 sigma tail mass is
    negligible).  ``regate_each_iteration`` rebuilds the gate at the
    current pose every sweep instead of holding the initial gate fixed;
    ``reestimate_gamma`` refits the precision from the residual covariance
    between sweeps.  Both are off by default, and the log-likelihood trace
    is guaranteed non-decreasing only with both off.  ``register`` and
    ``oracles.dense_em_register`` read these settings in one shared loop.

    Known limitation: with ``regate_each_iteration`` the stopping rule
    compares the log-likelihood on the graph rebuilt this sweep with the
    previous one on the previous graph, so a change of gate can end a run
    early with ``converged=True`` and a pose short of the optimum.
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
    error: it means the iteration budget ran out first.  ``graph`` is the
    match graph the final E-step ran on; its posterior is at ``pose``.
    """

    pose: Pose
    residual_covariance: np.ndarray
    iterations: int
    loglik_trace: np.ndarray
    n_inliers: int
    converged: bool
    graph: MatchGraph


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


def m_step(graph: MatchGraph, gamma: PrecisionMatrix) -> Pose:
    """Pose minimizing ``sum_e posterior_e * ||s_e - T(m_e, y)||^2_Gamma``.

    With weighted centroids ``c_s``, ``c_m`` and moments ``A = sum_e w_e
    (m_e - c_m)(s_e - c_s)^T``, ``B = sum_e w_e (m_e - c_m)(m_e - c_m)^T``,
    the best translation for a rotation ``R`` is ``c_s - R c_m``, leaving
    ``f(theta) = tr(Gamma R B R^T) - 2 tr(Gamma R A)``.  For isotropic
    ``gamma`` the first term is constant and ``atan2(A01 - A10, A00 + A11)``
    is exact; otherwise it seeds ``_anisotropic_theta``, which reads no edge.
    """
    w = graph.posterior
    if graph.edge_count == 0 or not np.any(w > 0.0):
        raise NoCorrespondences("all responsibilities are zero")
    total = float(w.sum())
    if total < _MIN_TOTAL_WEIGHT:
        raise DegenerateGeometry(f"total correspondence weight {total:.3e} is too small")
    c_s = w @ graph.scan_e / total
    c_m = w @ graph.model_e / total
    mt = graph.model_e - c_m
    wm = (mt * w[:, None]).T
    h = wm @ (graph.scan_e - c_s)
    theta = math.atan2(h[0, 1] - h[1, 0], h[0, 0] + h[1, 1])
    if not gamma.is_isotropic:
        theta = _anisotropic_theta(gamma, h, wm @ mt, theta)
    c, s = math.cos(theta), math.sin(theta)
    return Pose(c_s[0] - (c * c_m[0] - s * c_m[1]),
                c_s[1] - (s * c_m[0] + c * c_m[1]),
                theta)


def _anisotropic_theta(gamma: PrecisionMatrix, a, b, seed: float) -> float:
    """Global minimum of ``f(theta) = tr(Gamma R B R^T) - 2 tr(Gamma R A)``.

    Scaled and up to a constant, ``f = u cos 2theta + v sin 2theta - 2 (p cos
    theta + q sin theta)`` with ``|u| + |v| + |p| + |q| = 1``; its critical
    points are the unit-circle roots of a quartic in ``exp(i theta)``.  Newton
    descents start from ``seed`` and from each root's angle; one replaces the
    best so far only when lower by more than its rounding error, so the
    result is never above ``f(seed)``.
    """
    g00, g01, g11 = gamma.g00, gamma.g01, gamma.g11
    d, e, gd = 0.5 * (b[0, 0] - b[1, 1]), b[0, 1], g00 - g11
    coef = np.array([gd * d + 2.0 * g01 * e,
                     2.0 * g01 * d - gd * e,
                     a[0, 0] * g00 + a[0, 1] * g01 + a[1, 0] * g01 + a[1, 1] * g11,
                     a[0, 0] * g01 + a[0, 1] * g11 - a[1, 0] * g00 - a[1, 1] * g01])
    u, v, p, q = (coef / (np.abs(coef).sum() or 1.0)).tolist()    # all zero: f is flat
    starts = [seed]
    if math.hypot(u, v) > _SLOPE_ROUNDING:      # else the isotropic seed is exact
        quartic = [complex(v, u), -complex(q, p), 0.0, -complex(q, -p), complex(v, -u)]
        starts += np.angle(np.roots(quartic)).tolist()
    best = seed
    for start in starts:
        theta = _descend_theta(u, v, p, q, start)
        half, mid = 0.5 * (theta - best), 0.5 * (theta + best)
        # f(theta) - f(best) by sum-to-product, free of cancellation in f
        rise = (2.0 * math.sin(2.0 * half) * (v * math.cos(2.0 * mid) - u * math.sin(2.0 * mid))
                + 4.0 * math.sin(half) * (p * math.sin(mid) - q * math.cos(mid)))
        if rise < -_SLOPE_ROUNDING * abs(theta - best):
            best = theta
    return best


def _descend_theta(u, v, p, q, theta: float) -> float:
    """Newton descent on ``f``, taking a ``_MAX_TURN`` step downhill where the
    curvature is not positive or the Newton step is longer.  Stops once the
    slope is within its rounding error or the step underflows."""
    for _ in range(_NEWTON_MAX_STEPS):
        c, s = math.cos(theta), math.sin(theta)
        c2, s2 = c * c - s * s, 2.0 * s * c
        slope = v * c2 - u * s2 + p * s - q * c                 # f'/2
        if abs(slope) <= _SLOPE_ROUNDING:
            break
        curv = p * c + q * s - 2.0 * (u * c2 + v * s2)          # f''/2
        step = -slope / curv if curv > 0.0 else -math.copysign(_MAX_TURN, slope)
        step = max(-_MAX_TURN, min(_MAX_TURN, step))
        if theta + step == theta:
            break
        theta += step
    return theta


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


def register(scan, model, pose0: Pose, config: EmConfig) -> RegistrationResult:
    """Align ``scan`` to ``model`` starting from ``pose0``.

    Gates once at ``pose0`` (unless regating is enabled), then runs the
    E-step at ``pose0`` and sweeps M-step / E-step; each E-step also yields
    the log-likelihood at the pose it evaluated.  Stops when the
    log-likelihood gain of one sweep falls below
    ``config.convergence_epsilon`` or the iteration budget is exhausted.
    Per-sweep cost is O(E).  ``oracles.dense_em_register`` runs the same
    loop over its own dense steps.

    Known limitation: under ``regate_each_iteration`` the stopping rule
    compares log-likelihoods taken on different graphs, so a change of
    gate can end a run early with ``converged=True``.

    Raises EmptyInput for empty point sets and NoCorrespondences when the
    gate leaves no candidate pairs.  Running out of iterations is reported
    via ``converged=False``, not an error.

    Reentrant: no shared state, so registrations of different targets may
    run concurrently on separate graphs.
    """
    # The steps are read from this module at call time, so patching them
    # here (as a tracer does) reaches every call.
    return _run_em(as_point_array(scan), as_point_array(model), pose0, config,
                   build_graph, e_step, m_step, residual_covariance)


def _run_em(scan, model, pose0: Pose, config: EmConfig,
            gate, e_step, m_step, covariance) -> RegistrationResult:
    """The EM loop, over steps with the signatures of ``build_graph``,
    ``e_step``, ``m_step`` and ``residual_covariance``.

    ``iterations`` counts M-steps; each is followed by an E-step whose
    log-likelihood is appended to the trace and compared with the one
    before it.  With ``reestimate_gamma`` the precision is refit after each
    M-step and the trace restores the ``sqrt(det Gamma)`` normalizer, which
    then varies between sweeps, making the refit a proper conditional
    M-step with a monotone objective.
    """
    window = config.resolved_window()
    graph = gate(scan, model, pose0, window)
    if graph.edge_count == 0:
        raise NoCorrespondences(
            f"no scan point is within {window} m of the model at the initial pose"
        )

    pose, gamma = pose0, config.gamma
    trace: list[float] = []
    converged = False
    while True:
        loglik = e_step(graph, pose, gamma)
        if config.reestimate_gamma:
            loglik += 0.5 * graph.inlier_count * math.log(gamma.det)
        trace.append(loglik)
        sweeps = len(trace) - 1
        if sweeps and loglik - trace[-2] < config.convergence_epsilon:
            converged = True
            break
        if sweeps == config.max_iterations:
            break
        if config.regate_each_iteration and sweeps:
            graph = gate(scan, model, pose, window)
            if graph.edge_count == 0:
                raise NoCorrespondences("regating left no candidate pairs")
            e_step(graph, pose, gamma)
        pose = m_step(graph, gamma)
        if config.reestimate_gamma:
            try:
                gamma = PrecisionMatrix.from_covariance(covariance(graph, pose)[0])
            except ValueError:
                pass    # singular residuals: keep the previous precision

    # The last E-step ran at the returned pose, so the covariance matches it.
    cov, n_p = covariance(graph, pose)
    return RegistrationResult(
        pose=pose,
        residual_covariance=cov,
        iterations=sweeps,
        loglik_trace=np.asarray(trace),
        n_inliers=n_p,
        converged=converged,
        graph=graph,
    )
