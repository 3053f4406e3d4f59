"""The benchmark's workloads: inputs made from a seed, one registration per
step, and the checks that decide whether a registration failed or missed the truth.

emscan only ever sees the generated points; the ground truth stays here.
Input ``k`` of a workload is a pure function of ``(seed, k)``, so any run
can be repeated exactly.  Only names the README documents are used, so the
benchmark keeps working while the package's internals are refactored.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import emscan
import emscan.cli

#: The acceptance suite's bar for a recovered pose (20 mm, 1 degree).
MAX_TRANS_ERR_M = 0.02
MAX_ROT_ERR_RAD = math.radians(1.0)
#: The acceptance suite's tolerances: fast/dense pose agreement, trace
#: monotonicity and covariance eigenvalues.
ORACLE_POSE_TOL = 1e-9
MONOTONE_TOL = 1e-9
PSD_TOL = 1e-12


@dataclass
class Outcome:
    """One registration: its wall time and what the checks found.

    ``problems`` are outputs that break the program's contract (it raised,
    a non-PSD covariance, a falling trace, disagreement with the dense
    reference, a wrong CLI record); any of them makes the registration a
    failed one.  ``miss`` is a well-formed result whose pose lies beyond the
    acceptance bar: an accuracy outcome, counted by ``pose_ok_frac``.
    """

    seconds: float
    points: int
    trans_err_mm: float = math.nan
    rot_err_mdeg: float = math.nan
    miss: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failure(self) -> str | None:
        return self.problems[0] if self.problems else None


def _small_motion(rng, max_shift: float, max_turn_deg: float) -> emscan.Pose:
    """A pose with translation norm <= max_shift and |theta| <= max_turn_deg."""
    r = max_shift * math.sqrt(rng.uniform())
    a = rng.uniform(0.0, 2.0 * math.pi)
    return emscan.Pose(r * math.cos(a), r * math.sin(a),
                       math.radians(rng.uniform(-max_turn_deg, max_turn_deg)))


def _judge(seconds: float, points: int, pose, truth, cov, problems: list[str],
           sweeps, converged) -> Outcome:
    """Pose error against the truth plus the checks every workload shares."""
    trans = math.hypot(pose.tx - truth.tx, pose.ty - truth.ty)
    rot = abs(math.remainder(pose.theta - truth.theta, 2.0 * math.pi))
    miss = None
    if not (trans < MAX_TRANS_ERR_M and rot < MAX_ROT_ERR_RAD):
        miss = (f"pose misses the truth by {1e3 * trans:.2f} mm, {math.degrees(rot):.3f} deg "
                f"after {sweeps} sweeps (converged={converged})")
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2) or not np.isfinite(cov).all():
        problems.append(f"residual covariance is not a finite 2x2 matrix: {cov.tolist()}")
    elif abs(cov[0, 1] - cov[1, 0]) > PSD_TOL * max(1.0, abs(cov).max()):
        problems.append(f"residual covariance is not symmetric: {cov.tolist()}")
    elif np.linalg.eigvalsh(cov).min() < -PSD_TOL:
        problems.append(f"residual covariance is not PSD: {cov.tolist()}")
    return Outcome(seconds, points, 1e3 * trans, 1e3 * math.degrees(rot), miss, problems)


def _raised(seconds: float, points: int, error: Exception) -> Outcome:
    return Outcome(seconds, points, problems=[f"raised {error!r}"])


def _oracle_check(result, scan, model, pose0, config) -> list[str]:
    """Re-run one registration through the dense all-pairs reference."""
    dense = emscan.dense_em_register(scan, model, pose0, config)
    diff = max(abs(result.pose.tx - dense.pose.tx), abs(result.pose.ty - dense.pose.ty),
               abs(math.remainder(result.pose.theta - dense.pose.theta, 2.0 * math.pi)))
    if diff > ORACLE_POSE_TOL:
        return [f"pose differs from dense_em_register by {diff:.3e}"]
    return []


class Workload:
    """Base: a stream of inputs ``0, 1, 2, ...`` and one registration per step.

    ``call(fn, *args)`` is supplied by the runner: it runs the program call
    alone under the clock (and, in a traced run, under the tracer) and
    returns ``(result, seconds, error)``, where ``error`` is the exception
    the call raised, or None.  ``lap`` inputs form one lap of a traced
    run; ``oracle_sample`` lists the inputs also checked against the dense
    reference, once per run.  The pose-error metrics are taken over the
    first ``accuracy_sample`` inputs, so on one seed they do not depend on
    how many registrations the machine's speed lets a run complete.
    """

    name = ""
    lap = 1
    accuracy_sample = 1
    oracle_sample: tuple[int, ...] = ()

    def __init__(self, seed: int, workdir: str, n: int | None = None):
        self.seed = int(seed)
        self.workdir = workdir
        if n is not None:
            self.n = int(n)
        self._oracle_done: set[int] = set()
        self.restart()

    def restart(self) -> None:
        """Go back to input 0."""
        self.k = 0

    def warm_up(self, call) -> Outcome:
        """One registration of the untimed input -1 (cold caches, lazy set-up)."""
        return self._register(-1, call)

    def step(self, call) -> Outcome:
        outcome = self._register(self.k, call)
        self.k += 1
        return outcome

    def scene(self, k: int):
        """Scan, model and true pose of input ``k``, made from the seed."""
        raise NotImplementedError

    def _rng(self, k: int) -> np.random.Generator:
        # Input -1, the warm-up, is the same for every seed, so that set-up
        # time does not vary with the seed.
        seed = self.seed if k >= 0 else 0
        return np.random.default_rng([seed % 2**63, k + 1])

    def _register(self, k: int, call) -> Outcome:
        raise NotImplementedError

    def _take_oracle(self, k: int) -> bool:
        if k in self.oracle_sample and k not in self._oracle_done:
            self._oracle_done.add(k)
            return True
        return False


class Track(Workload):
    """The README scene as a tracking loop: each scan starts from the
    previous estimate while the truth moves by <= 5 cm and <= 2 degrees.
    Inputs are made in order, each truth from the one before."""

    name = "track"
    n = 200
    lap = 40
    accuracy_sample = 512
    oracle_sample = (0, 1)
    config = emscan.EmConfig.isotropic(0.02, window_w=1.0)

    def restart(self) -> None:
        super().restart()
        self.truth = emscan.Pose.identity()
        self.estimate = emscan.Pose.identity()

    def scene(self, k: int):
        rng = self._rng(k)
        truth = self.truth.compose(_small_motion(rng, 0.05, 2.0))
        model, scan, _ = emscan.make_scene("rectangle", self.n, truth, noise_sigma=0.02,
                                           seed=int(rng.integers(2**31)))
        return scan, model, truth

    def _register(self, k: int, call) -> Outcome:
        scan, model, truth = self.scene(k)
        pose0 = self.estimate
        result, seconds, error = call(emscan.register, scan, model, pose0, self.config)
        if k >= 0:
            self.truth = truth
        if error is not None:
            return _raised(seconds, self.n, error)
        if k >= 0:
            self.estimate = result.pose
        problems = []
        drops = np.diff(result.loglik_trace)
        if drops.size and drops.min() < -MONOTONE_TOL:
            problems.append(f"loglik_trace drops by {-drops.min():.3e}")
        if self._take_oracle(k):
            problems += _oracle_check(result, scan, model, pose0, self.config)
        return _judge(seconds, self.n, result.pose, truth, result.residual_covariance, problems,
                      result.iterations, result.converged)


class Relocalize(Workload):
    """Large initial error from identity, regating every sweep, anisotropic
    precision (Gauss-Newton M-step), 5% planted outliers.

    Inputs cycle through one rectangle and two L-shapes.  An L-shape call
    costs about 1.5 times a rectangle one, so with equal shares the median
    latency would sit in the gap between the two groups and jump with every
    slow spell of the machine; two L-shapes to one rectangle put it inside
    the L-shape group.
    """

    name = "relocalize"
    n = 240
    lap = 9
    accuracy_sample = 224
    oracle_sample = (0, 1)
    shapes = ("rectangle", "l-shape", "l-shape")
    gamma = emscan.PrecisionMatrix(2500.0, 375.0, 625.0)
    config = emscan.EmConfig(gamma=gamma, window_w=0.3, regate_each_iteration=True)

    def scene(self, k: int):
        rng = self._rng(k)
        truth = _small_motion(rng, 0.15, 4.0)
        model, scan, _ = emscan.make_scene(self.shapes[k % len(self.shapes)], self.n, truth,
                                           outlier_fraction=0.05,
                                           seed=int(rng.integers(2**31)))
        # Noise drawn from the precision the registration assumes.
        noise_cov = np.linalg.inv(self.gamma.as_matrix())
        scan = scan + rng.multivariate_normal([0.0, 0.0], noise_cov, scan.shape[0])
        return scan, model, truth

    def _register(self, k: int, call) -> Outcome:
        scan, model, truth = self.scene(k)
        pose0 = emscan.Pose.identity()
        result, seconds, error = call(emscan.register, scan, model, pose0, self.config)
        if error is not None:
            return _raised(seconds, self.n, error)
        problems = _oracle_check(result, scan, model, pose0, self.config) \
            if self._take_oracle(k) else []
        return _judge(seconds, self.n, result.pose, truth, result.residual_covariance, problems,
                      result.iterations, result.converged)


class Map(Workload):
    """One large scan against a large map through ``emscan register``, run
    in-process: the recipe of ``emscan bench`` (uniform model at 25 points
    per square meter, W = 0.5 m, epsilon = 0.01 n, near-pure translation)."""

    name = "map"
    n = 2000
    lap = 12
    accuracy_sample = 160
    density = 25.0
    window = 0.5
    sigma = 0.02
    truth = emscan.Pose(0.05, -0.03, 0.001)

    def scene(self, k: int):
        rng = self._rng(k)
        side = math.sqrt(self.n / self.density)
        model = rng.uniform(0.0, side, (self.n, 2))
        scan = self.truth.apply(model) + rng.normal(0.0, self.sigma, (self.n, 2))
        return scan, model, self.truth

    def _register(self, k: int, call) -> Outcome:
        scan, model, truth = self.scene(k)
        os.makedirs(self.workdir, exist_ok=True)
        scan_path = os.path.join(self.workdir, "scan.txt")
        model_path = os.path.join(self.workdir, "model.txt")
        emscan.save_points(scan_path, scan)
        emscan.save_points(model_path, model)
        argv = ["register", scan_path, model_path, "--sigma", str(self.sigma),
                "--w", str(self.window), "--epsilon", str(0.01 * self.n)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, seconds, error = call(emscan.cli.main, argv)
        if error is not None:
            return _raised(seconds, self.n, error)
        if code != 0:
            return Outcome(seconds, self.n, problems=[
                f"exit code {code}: {err.getvalue().strip()[:200]}"])
        try:
            record = json.loads(out.getvalue())
            pose = emscan.Pose(record["pose"]["tx"], record["pose"]["ty"],
                               record["pose"]["theta"])
            cov = record["residual_covariance"]
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(seconds, self.n, problems=[f"bad JSON record: {exc!r}"])
        expected = {"schema_version": 1, "n_scan": self.n, "n_model": self.n,
                    "window": self.window}
        problems = [f"record {key} is {record.get(key)!r}, expected {value!r}"
                    for key, value in expected.items() if record.get(key) != value]
        return _judge(seconds, self.n, pose, truth, cov, problems,
                      record.get("iterations"), record.get("converged"))


WORKLOADS = {cls.name: cls for cls in (Track, Map, Relocalize)}
