"""Expectation-maximization registration of a scan to a model point set.

One registration call gates candidate correspondences, then alternates two
steps until the marginal log-likelihood stops improving; ``_run_em`` states
when the loop stops, regates and extrapolates:

* E-step: per-edge responsibilities, the posterior probability that a scan
  point measures a given gated model point under the current pose.
* M-step: the pose minimizing the responsibility-weighted squared
  Mahalanobis residual sum: closed form for isotropic precision, else a
  scalar minimization over the rotation from two weighted 2x2 moments.

Both read the graph's five feature rows with a few matrix products, so a
sweep costs O(E) over the gated edges, which is O(n) in the scan size for
bounded-density scenes.  After convergence the residual covariance is the
responsibility-weighted average outer product of the residuals over the n_P
scan points that have at least one correspondence.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
    DegenerateRow,
    NoCorrespondences,
    NoInliers,
)
from .geometry import Pose, PrecisionMatrix, as_point_array
from .graph import MatchGraph, build_graph

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
#: The smallest normal float and its log: smaller weights are flushed to 0.
_TINY = float(np.finfo(float).tiny)
_LOG_TINY = math.log(_TINY)
#: The E-step skips the row-max shift when no exponent is below this: 40 nats
#: exceed the log of any row's edge count (e**40 is about 2.4e17), so every
#: weight and posterior it forms is a normal float.
_NO_SHIFT_FLOOR = _LOG_TINY + 40.0
_NEWTON_MAX_STEPS = 16
#: Sums and negates the two squared rows of ``U r`` in one product.
_MINUS_ONES = np.array([-1.0, -1.0])
#: The normalized drop per radian by which the rotation solve's turn must beat its seed.
_SLOPE_ROUNDING = 8.0 * np.finfo(float).eps
#: Smallest eigenvalue ratio of Gamma at which EM is extrapolated: below sqrt(eps)
#: a pose direction lies under the objective's rounding, which extrapolating amplifies.
_MIN_CONDITIONING = 2.0 ** -26


@dataclass(frozen=True)
class EmConfig:
    """Registration settings.

    ``window_w`` of None selects the default gate radius of three times the
    largest noise std implied by ``gamma`` (3 sigma tail mass is
    negligible).  ``regate_each_iteration``, off by default, regates at each
    fixed point of EM.  ``_run_em``, the loop of ``register`` and
    ``oracles.dense_em_register``, states what each setting does.
    """

    gamma: PrecisionMatrix
    window_w: float | None = None
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    convergence_epsilon: float = DEFAULT_CONVERGENCE_EPSILON
    regate_each_iteration: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.gamma, PrecisionMatrix):
            raise TypeError("gamma must be a PrecisionMatrix")
        if self.window_w is not None and not 0.0 < self.window_w < math.inf:
            raise ValueError(f"window_w must be finite and > 0, got {self.window_w}")
        if (isinstance(self.max_iterations, bool)
                or not isinstance(self.max_iterations, numbers.Integral)):
            raise TypeError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.convergence_epsilon > 0.0:
            raise ValueError(
                f"convergence_epsilon must be > 0, got {self.convergence_epsilon}"
            )
        if not isinstance(self.regate_each_iteration, (bool, np.bool_)):
            raise TypeError("regate_each_iteration must be a bool, "
                            f"got {self.regate_each_iteration!r}")

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
    one entry per M-step (``iterations`` counts them), the log-likelihood
    at the pose held after it on the gate then in force: after an accepted
    SQUAREM extrapolation, the one at the extrapolated pose.  It is one
    non-decreasing segment per gate, up to float noise: a single segment
    in the default configuration.  ``converged=False`` is a valid outcome,
    not an error: the iteration budget ran out first, or the log-likelihood
    fell on a fixed gate by more than its rounding error (logged as a
    warning).  ``graph`` is the match graph the final E-step ran on; its
    posterior is at ``pose``, and after a converged regating run it is the
    gate built at ``pose``.
    """

    pose: Pose
    residual_covariance: np.ndarray
    iterations: int
    loglik_trace: np.ndarray
    n_inliers: int
    converged: bool
    graph: MatchGraph


def _turn(delta: float) -> tuple[float, float]:
    """``(cos delta - 1, sin delta)``, the first as ``-2 sin^2(delta / 2)``."""
    half = math.sin(0.5 * delta)
    return -2.0 * half * half, math.sin(delta)


def _residual_map(graph: MatchGraph, pose: Pose) -> list[list[float]]:
    """The ``(2, 5)`` matrix ``[[dx, 1, 0, -a, b], [dy, 0, 1, -b, -a]]`` that maps the
    features to every edge's residual at ``pose``, ``delta + L q + d``, with ``(a, b) =
    _turn(theta - theta0)``, ``L = I - R(theta - theta0) = -[[a, -b], [b, a]]`` and ``d =
    t0 - t + L (center - t0)`` for the anchor."""
    anchor = graph.anchor
    a, b = _turn(pose.theta - anchor.theta)
    vx, vy = graph.center[0] - anchor.tx, graph.center[1] - anchor.ty
    dx, dy = anchor.tx - pose.tx - (a * vx - b * vy), anchor.ty - pose.ty - (b * vx + a * vy)
    return [[dx, 1.0, 0.0, -a, b], [dy, 0.0, 1.0, -b, -a]]


def _exponents(graph: MatchGraph, pose: Pose, gamma: PrecisionMatrix) -> np.ndarray:
    """Every edge's exponent ``-r^T Gamma r / 2`` at ``pose``, as ``-|U r|^2 <= 0``.

    ``U`` is the upper-triangular factor of ``Gamma / 2``, ``U^T U = Gamma / 2``,
    and ``U r`` is ``U`` times ``_residual_map``, one ``(2, 5)`` product with the
    features, the same for every ``gamma``.  Where ``Gamma`` is nearly singular,
    ``g11 / 2 - u01^2`` cancels and may round below 0: ``u11`` is then 0.
    ``|U r|^2`` overflows to ``inf`` only where the exponent itself is below
    ``-max float``.
    """
    u00 = math.sqrt(gamma.g00) * math.sqrt(0.5)     # not 0 where g00 / 2 underflows
    u01 = 0.5 * gamma.g01 / u00
    u11 = math.sqrt(max(0.5 * gamma.g11 - u01 * u01, 0.0))
    rx, ry = _residual_map(graph, pose)
    ur = np.array([[u00 * x + u01 * y for x, y in zip(rx, ry)],
                   [u11 * y for y in ry]]) @ graph.features
    ur *= ur
    return _MINUS_ONES @ ur


def e_step(graph: MatchGraph, pose: Pose, gamma: PrecisionMatrix) -> float:
    """Update ``graph.posterior`` in place and return the log-likelihood at ``pose``.

    The exponents, all ``<= 0``, are one product with the features
    (``_exponents``).  The prior is uniform over each row, ``1 / count_j``, read
    once per row at its first edge (a non-uniform ``graph.prior`` is not
    honoured); it cancels in the posterior, so each nonempty row j becomes
    ``density_jk / sum_k' density_jk'``.  Rows without edges are untouched.

    When no exponent is below ``_NO_SHIFT_FLOOR``, ``log(2**-1022) + 40``, the
    weights are the unshifted ``exp`` of the exponents: each is at least
    ``2**-1022 e**40``, each row's denominator lies between its largest weight
    and its edge count, so each posterior is at least ``2**-1022 e**40 /
    count``, a normal float for any count below ``e**40``; nothing needs a
    flush.  Otherwise (a NaN or -inf exponent included) each row is shifted by
    its maximum, which keeps rows far from the model exactly normalized, and
    weights below 2**-1022, the smallest normal float, are exact zeros: ``exp``
    runs only where an exponent lies at most ``log(2**-1022)`` below its row's
    maximum, and a normalized weight still below 2**-1022 is flushed.  Further
    down, ``exp`` leaves its vectorized path and yields subnormals that slow
    every later multiply.  Each row keeps a weight of at least 1 / count, so
    the flush changes no sum.

    The return value is the marginal log-likelihood, the sum over nonempty
    rows of ``log prior_j + log sum_k density_jk``, read off the same
    denominators and row maxima.  Outlier rows contribute zero, and a graph
    without edges scores exactly 0.  The dropped Gaussian normalization
    constant shifts it by a pose-independent amount.  Raises DegenerateRow,
    with ``graph.posterior`` unwritten, when it is not finite, as when the
    exponents overflow.
    """
    if graph.edge_count == 0:
        return 0.0
    starts, counts = graph.nonempty_rows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # surface below
        expo = _exponents(graph, pose, gamma)
        shift = not expo.min() >= _NO_SHIFT_FLOOR
        if shift:
            row_max = np.maximum.reduceat(expo, starts)
            expo -= np.repeat(row_max, counts)
            weights = np.zeros_like(expo)
            np.exp(expo, out=weights, where=expo >= _LOG_TINY)
        else:
            row_max, weights = 0.0, np.exp(expo, out=expo)
        denom = np.add.reduceat(weights, starts)
        loglik = float(np.sum(row_max + np.log(denom) + np.log(graph.prior[starts])))
    # Every weight lies in [0, 1] and every denom is at least its row's largest
    # weight, so a finite log-likelihood implies finite posteriors.
    if not math.isfinite(loglik):
        raise DegenerateRow(f"log-likelihood {loglik} is not finite")
    np.divide(weights, np.repeat(denom, counts), out=graph.posterior)
    if shift:
        graph.posterior *= graph.posterior >= _TINY
    return loglik


def m_step(graph: MatchGraph, gamma: PrecisionMatrix) -> Pose:
    """Pose minimizing ``sum_e posterior_e * ||s_e - T(m_e, y)||^2_Gamma``.

    In the anchor's frame, ``F @ w`` gives the total weight and the weighted
    centroids, and one ``(q w) @ [delta; q]^T`` the weighted moments ``A =
    sum_e w_e (m_e - c_m)(s_e - c_s)^T`` and ``B = sum_e w_e (m_e - c_m)(m_e -
    c_m)^T``.  The best translation for a turn ``R`` from the anchor is ``c_s
    - R c_m``, leaving ``f = tr(Gamma R B R^T) - 2 tr(Gamma R A)``.  For
    isotropic ``gamma`` the first term is constant and ``atan2(A01 - A10, A00
    + A11)`` is exact; otherwise it seeds ``_anisotropic_theta``, which reads
    no edge.  Raises DegenerateGeometry when the total weight is too small or
    the moments overflow.
    """
    f, w = graph.features, graph.posterior
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as the error below
        total, *sums = (f @ w).tolist()
        raw = ((f[3:5] * w) @ f[1:5].T).tolist()
    if not total > 0.0:
        raise NoCorrespondences("all responsibilities are zero")
    if total < _MIN_TOTAL_WEIGHT:
        raise DegenerateGeometry(f"total correspondence weight {total:.3e} is too small")
    # the weighted means of delta, q, q delta^T and q q^T; s - center is delta + q
    dx, dy, qx, qy = (v / total for v in sums)
    (pxx, pxy, bxx, bxy), (pyx, pyy, _, byy) = ([v / total for v in row] for row in raw)
    bxx, byy, bxy = bxx - qx * qx, byy - qy * qy, bxy - qx * qy
    h = [[pxx - qx * dx + bxx, pxy - qx * dy + bxy], [pyx - qy * dx + bxy, pyy - qy * dy + byy]]
    bm = [[bxx, bxy], [bxy, byy]]
    # no value formed from the moments below exceeds this in size
    if not math.isfinite(2.0 * sum(abs(v) for row in h + bm for v in row)):
        raise DegenerateGeometry("the weighted moments of the pairs overflow")
    turn = math.atan2(h[0][1] - h[1][0], h[0][0] + h[1][1])
    if not gamma.is_isotropic:
        turn = _anisotropic_theta(gamma, h, bm, turn)
    # c_s - R c_m = t0 + mean(delta) - (R(turn) - I)(mean(q) + center - t0)
    anchor, (a, b) = graph.anchor, _turn(turn)
    vx, vy = qx + graph.center[0] - anchor.tx, qy + graph.center[1] - anchor.ty
    return Pose(anchor.tx + dx - (a * vx - b * vy), anchor.ty + dy - (b * vx + a * vy),
                anchor.theta + turn)


def _anisotropic_theta(gamma: PrecisionMatrix, a, b, seed: float) -> float:
    """Global minimum of ``f(theta) = tr(Gamma R B R^T) - 2 tr(Gamma R A)``.

    Scaled and up to a constant, ``f = x^T M x - 2 beta^T x`` on the unit circle
    ``x = (cos theta, sin theta)``, ``M = [[u, v], [v, -u]]``, ``beta = (p, q)`` and
    ``|u| + |v| + |p| + |q| = 1``: a trust-region subproblem.  On the eigenbasis of ``M``,
    eigenvalues ``+-rho`` with the first along ``phi = atan2(v, u) / 2``, ``beta`` is
    ``(b1, b2)`` and the minimizer ``x = (b1 / (nu + 2 rho), b2 / nu)``, at the ``nu > 0``
    where ``1 / |x| - 1``, concave and increasing, is 0 (Moré & Sorensen, SIAM J. Sci.
    Stat. Comput. 1983): Newton climbs to it from below.  The smaller entry of ``x`` is
    well conditioned; the other follows from ``|x| = 1``.  At ``b2 = 0``, ``|b1| <= 2 rho``,
    ``nu = 0``: of the minima ``phi +- acos(b1 / 2 rho)`` the seed's side is taken.  A ``b2``
    too small to move ``nu + 2 rho``, as a subnormal one is, takes that branch on its own
    side: Newton's steps from a subnormal ``nu`` overflow.  The result replaces ``seed``
    only when lower by more than its rounding error.
    """
    # Gamma scaled by the power of two that puts its largest entry in [0.5, 1):
    # exact, so ``coef`` keeps its normalized value but cannot overflow.
    exponent = -math.frexp(max(gamma.g00, gamma.g11))[1]
    g00, g01, g11 = (math.ldexp(g, exponent) for g in (gamma.g00, gamma.g01, gamma.g11))
    (a00, a01), (a10, a11) = a
    d, e, gd = 0.5 * (b[0][0] - b[1][1]), b[0][1], g00 - g11
    coef = (gd * d + 2.0 * g01 * e,
            2.0 * g01 * d - gd * e,
            a00 * g00 + a01 * g01 + a10 * g01 + a11 * g11,
            a00 * g01 + a01 * g11 - a10 * g00 - a11 * g01)
    scale = sum(map(abs, coef)) or 1.0      # all zero: f is flat
    u, v, p, q = (c / scale for c in coef)
    rho, phi = math.hypot(u, v), 0.5 * math.atan2(v, u)
    b1, b2 = p * math.cos(phi) + q * math.sin(phi), q * math.cos(phi) - p * math.sin(phi)
    gap = (2.0 * rho - abs(b1)) * (2.0 * rho + abs(b1))
    # For gap > 0 the root is at most 2 rho |b2| / sqrt(gap): where that cannot move
    # nu + 2 rho, x1 is b1 / 2 rho as at b2 = 0, and b2 picks the side.
    if (b2 == 0.0 and gap >= 0.0       # rho is 0 here only where f is flat
            or gap > 0.0 and 2.0 * rho + 2.0 * rho * abs(b2) / math.sqrt(gap) == 2.0 * rho):
        turn = math.copysign(math.acos(b1 / (2.0 * rho or 1.0)), b2 or math.sin(seed - phi))
    else:
        # Lower bounds on the root: |x2| <= 1, |x| >= |beta| / (nu + 2 rho) and, near the fold
        # |b1| = 2 rho, a term of b1^2 nu^3 + rho gap nu^2 >= 4 rho^3 b2^2 reaching half of it.
        nu = max(abs(b2), math.hypot(b1, b2) - 2.0 * rho)
        if b1 and rho:
            by_square = abs(b2) * math.sqrt(2.0 * rho * rho / gap) if gap > 0.0 else math.inf
            nu = max(nu, min(rho * (math.sqrt(2.0) * abs(b2 / b1)) ** (2.0 / 3.0), by_square))
        for _ in range(_NEWTON_MAX_STEPS):
            x1, x2 = b1 / (nu + 2.0 * rho), b2 / nu
            norm = math.hypot(x1, x2)
            step = (norm - 1.0) * norm * norm / (x1 * x1 / (nu + 2.0 * rho) + x2 * x2 / nu)
            if not nu + step > nu:
                break
            nu += step
        if abs(x1) <= abs(x2):
            x2 = math.copysign(math.sqrt(1.0 - x1 * x1), b2)
        else:
            x1 = math.copysign(math.sqrt(1.0 - x2 * x2), b1)
        turn = math.atan2(x2, x1)
    theta = seed + math.remainder(phi + turn - seed, math.tau)
    half, mid = 0.5 * (theta - seed), 0.5 * (theta + seed)
    # f(theta) - f(seed) by sum-to-product, free of cancellation in f
    rise = (2.0 * math.sin(2.0 * half) * (v * math.cos(2.0 * mid) - u * math.sin(2.0 * mid))
            + 4.0 * math.sin(half) * (p * math.sin(mid) - q * math.cos(mid)))
    return theta if rise < -_SLOPE_ROUNDING * abs(theta - seed) else seed


def residual_covariance(graph: MatchGraph, pose: Pose) -> tuple[np.ndarray, int]:
    """Responsibility-weighted residual outer-product average and n_P.

    Returns ``(1/n_P) * sum_e posterior_e r_e r_e^T`` with ``r_e = s_e -
    pose(m_e)``, read off the features through ``_residual_map``, and ``n_P`` the
    number of scan points holding at least one edge.  Symmetric PSD by
    construction; raises NoInliers when every scan point is an outlier.
    """
    n_p = graph.inlier_count
    if n_p == 0:
        raise NoInliers("every scan point is an outlier")
    rx, ry = np.array(_residual_map(graph, pose)) @ graph.features
    wx = graph.posterior * rx
    rxx, rxy, ryy = float(wx @ rx), float(wx @ ry), float(graph.posterior @ (ry * ry))
    return np.array([[rxx, rxy], [rxy, ryy]]) / n_p, n_p


def register(scan, model, pose0: Pose, config: EmConfig) -> RegistrationResult:
    """Align ``scan`` to ``model`` starting from ``pose0``, by the loop that
    ``_run_em`` states, at O(E) per sweep.

    Raises EmptyInput for empty point sets, NoCorrespondences when the
    gate leaves no candidate pairs, DegenerateRow when the log-likelihood
    overflows and DegenerateGeometry when the fit's moments do.  Running
    out of iterations is reported via ``converged=False``, not an error.

    Reentrant: no shared state, so registrations of different targets may
    run concurrently on separate graphs.
    """
    # The steps are read from this module at call time, so patching them
    # here (as a tracer does) reaches every call.
    return _run_em(as_point_array(scan), as_point_array(model), pose0, config,
                   build_graph, e_step, m_step, residual_covariance)


def _run_em(scan, model, pose0: Pose, config: EmConfig,
            gate, e_step, m_step, covariance) -> RegistrationResult:
    """The EM loop over gates, on steps with the signatures of ``build_graph``,
    ``e_step``, ``m_step`` and ``residual_covariance``: the one statement of
    the contract that ``register`` and ``oracles.dense_em_register`` share.

    The run gates at ``pose0`` and takes the E-step there.  On each gate, EM
    maps (an M-step, then the E-step at its pose) run until one gains less
    than ``convergence_epsilon``.  Without ``regate_each_iteration`` that ends
    the run, converged.  With it, the gate is rebuilt at that pose, and the
    run converges only once the rebuilt gate has the same edges.  In both
    modes, every two maps on a gate are followed by one SQUAREM extrapolation
    (``_squarem``), kept only when it scores no lower, unless Gamma's
    eigenvalue ratio is below ``_MIN_CONDITIONING``.  The budget running out,
    or a drop on a fixed gate beyond twice ``_loglik_rounding``, ends the run
    unconverged.  ``iterations`` counts M-steps; the trace holds the initial
    log-likelihood, then the one at the pose held after each M-step, on the
    gate in force at that M-step.
    """
    window = config.resolved_window()
    gamma, regate = config.gamma, config.regate_each_iteration
    lo, hi = gamma.eigenvalues()
    extrapolate = lo >= _MIN_CONDITIONING * hi
    pose = pose0
    graph = _gate(gate, scan, model, pose, window)
    loglik = e_step(graph, pose, gamma)     # at ``pose``, on ``graph``
    trace = [loglik]
    cycle = [pose]                          # the poses since the last extrapolation
    converged = False
    while len(trace) <= config.max_iterations:
        pose = m_step(graph, gamma)
        before, loglik = loglik, e_step(graph, pose, gamma)
        trace.append(loglik)
        if loglik - before < config.convergence_epsilon:
            # EM cannot lower the log-likelihood on a fixed gate, so a drop
            # beyond the rounding error of the two values is a numerical fault.
            if loglik < before and before - loglik > 2.0 * _loglik_rounding(graph, pose, gamma):
                logger.warning("log-likelihood fell from %r to %r on a fixed gate; "
                               "stopping unconverged", before, loglik)
                break
            if not regate:
                converged = True
                break
            fresh = _gate(gate, scan, model, pose, window)
            if (np.array_equal(fresh.scan_idx, graph.scan_idx)
                    and np.array_equal(fresh.model_idx, graph.model_idx)):
                converged = True
                break
            graph, cycle = fresh, [pose]
            loglik = e_step(graph, pose, gamma)
            continue
        if not extrapolate:
            continue
        cycle.append(pose)
        if len(cycle) < 3 or len(trace) > config.max_iterations:
            continue
        trial, cycle = _squarem(*cycle), [pose]
        if trial is None:
            continue
        kept = graph.posterior.copy()
        try:
            trial_loglik = e_step(graph, trial, gamma)
        except DegenerateRow:
            trial_loglik = -math.inf
        if trial_loglik >= loglik:
            pose, loglik, trace[-1], cycle = trial, trial_loglik, trial_loglik, [trial]
        else:
            graph.posterior[:] = kept

    # The last E-step kept ran at the returned pose, so the covariance matches it.
    cov, n_p = covariance(graph, pose)
    return RegistrationResult(
        pose=pose,
        residual_covariance=cov,
        iterations=len(trace) - 1,
        loglik_trace=np.asarray(trace),
        n_inliers=n_p,
        converged=converged,
        graph=graph,
    )


def _gate(gate, scan, model, pose: Pose, window: float) -> MatchGraph:
    graph = gate(scan, model, pose, window)
    if graph.edge_count == 0:
        raise NoCorrespondences(f"no scan point is within {window} m of the model at {pose}")
    return graph


def _squarem(p0: Pose, p1: Pose, p2: Pose) -> Pose | None:
    """SQUAREM's extrapolation from two EM maps ``p0 -> p1 -> p2`` (Varadhan
    & Roland, Scand. J. Statist. 2008): ``p0 - 2 alpha r + alpha^2 v`` with
    ``r = p1 - p0``, ``v = p2 - 2 p1 + p0`` and ``alpha = min(-|r| / |v|, -1)``;
    ``alpha = -1`` gives back ``p2``.  Angle differences are wrapped.  None
    when ``v`` vanishes or the step overflows."""
    a0, a1, a2 = p0.to_array(), p1.to_array(), p2.to_array()
    r, v = a1 - a0, a2 - a1
    r[2], v[2] = math.remainder(r[2], math.tau), math.remainder(v[2], math.tau)
    v -= r
    norm_v = math.hypot(*v)
    if norm_v == 0.0:
        return None
    alpha = min(-math.hypot(*r) / norm_v, -1.0)
    y = a0 - 2.0 * alpha * r + alpha * alpha * v
    return Pose.from_array(y) if np.isfinite(y).all() else None


def _loglik_rounding(graph: MatchGraph, pose: Pose, gamma: PrecisionMatrix) -> float:
    """Bound on the rounding error of ``e_step``'s log-likelihood at ``pose``.

    A row's term is ``log prior_j + log sum_k exp(x_k)``, so errors in its
    exponents ``x = -|U r|^2`` (``_exponents``) move it by their posterior
    mean.  Each entry of ``U r``, a sum of 5 terms, errs by a few ulps of
    ``|U| u`` for ``u = |delta| + |L| |q| + |d|``, and ``U^T U`` misses ``Gamma /
    2`` by a few ulps of ``|Gamma|``, also where ``u11`` cancels.  As ``|U|^T |U|
    = |Gamma| / 2`` for a 2x2 triangular ``U``, ``x`` errs by about a dozen ulps
    of ``u^T |Gamma| u / 2``, taken as 32 ulps of ``u^T |Gamma| u``: far above
    ``|x|`` where the pose is far from the anchor and ``r`` small.  Against ``s -
    R m - t`` from the input points, ``r`` is off by a few ulps of ``|s| + |m| +
    |t0| + |t|`` (building ``F``; turning by ``theta0``, then by ``theta -
    theta0``), taken as 16 ulps, ``err``; with ``u`` widened by ``err``, that
    moves ``x`` by at most ``|Gamma| u`` times ``err``.  The logs, exp and the
    sums add a few ulps of the row terms, which ``|x|`` and ``-log prior_j``
    bound.
    """
    eps, anchor = float(np.finfo(float).eps), graph.anchor
    (dx, _, _, a, b), (dy, *_) = _residual_map(graph, pose)      # only sizes are read
    ex, ey, qx, qy = np.abs(graph.features[1:])
    err = 16.0 * eps * (np.abs(graph.scan[graph.scan_idx]).sum(axis=1)
                        + np.abs(graph.model[graph.model_idx]).sum(axis=1)
                        + (abs(pose.tx) + abs(pose.ty) + abs(anchor.tx) + abs(anchor.ty)))
    ux = ex + abs(a) * qx + abs(b) * qy + (abs(dx) + err)
    uy = ey + abs(b) * qx + abs(a) * qy + (abs(dy) + err)
    g00, g01, g11 = abs(gamma.g00), abs(gamma.g01), abs(gamma.g11)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow forgives every drop
        gx, gy = g00 * ux + g01 * uy, g01 * ux + g11 * uy          # |Gamma| u
        size = 32.0 * eps * (ux * gx + uy * gy) + (gx + gy) * err
        log_prior = np.log(graph.prior[graph.nonempty_rows[0]])
        bound = float(graph.posterior @ size) - 16.0 * eps * log_prior.sum()
    return bound if math.isfinite(bound) else math.inf
