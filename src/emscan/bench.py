"""Wall-clock scaling study of registration at fixed point density.

Scenes keep the number of points per square meter constant while the area
grows, so gated neighborhoods stay bounded and the per-call cost should
grow linearly.  Times come from a monotonic clock and are divided by the
sweep count to separate the per-sweep cost from iteration-count variance;
a sweep's share includes the E-steps that score SQUAREM's trial poses.
Each size reports the median over its repeats, so one repeat slowed by
the machine does not move its row or the slope.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .em import EmConfig, register
from .geometry import Pose, PrecisionMatrix

__all__ = ["run_scaling"]

DEFAULT_DENSITY = 25.0     # points per square meter
DEFAULT_WINDOW = 0.5       # gate radius, meters
DEFAULT_NOISE_SIGMA = 0.02
#: Stop a sweep when the mean per-point log-likelihood gain drops below this.
EPSILON_PER_POINT = 0.01
# Near-pure translation: a rotation's displacement grows with the scene
# side, which would couple the start error to N.
_PERTURBATION = Pose(0.05, -0.03, 0.001)


@dataclass(frozen=True)
class BenchRow:
    n: int
    ms_per_iteration: float     # median over the repeats
    iterations: float           # median over the repeats


def scaling_scene(n: int, seed: int, density: float = DEFAULT_DENSITY,
                  noise_sigma: float = DEFAULT_NOISE_SIGMA):
    """Uniform random model in a square sized for ``density``, plus a
    perturbed noisy scan."""
    rng = np.random.default_rng(seed)
    side = float(np.sqrt(n / density))
    model = rng.uniform(0.0, side, (n, 2))
    scan = _PERTURBATION.apply(model) + rng.normal(0.0, noise_sigma, (n, 2))
    return scan, model


def run_scaling(sizes, repeats: int = 3, seed: int = 0,
                density: float = DEFAULT_DENSITY,
                window: float = DEFAULT_WINDOW) -> tuple[list[BenchRow], float | None]:
    """Benchmark each size; returns the rows and the log-log slope.

    The slope is fit by least squares on log(median ms/iteration) against
    log(n) and is None when fewer than two sizes are given.  Repeats are
    seeded individually, so results are reproducible run to run.  Raises
    ValueError unless ``repeats >= 1``, the sizes strictly ascend and the
    density is finite and positive.
    """
    sizes = [int(n) for n in sizes]
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly ascending, got {sizes}")
    if not 0.0 < density < math.inf:
        raise ValueError(f"density must be finite and > 0, got {density}")

    def config_for(n):
        return EmConfig(
            gamma=PrecisionMatrix.isotropic(DEFAULT_NOISE_SIGMA),
            window_w=window,
            convergence_epsilon=EPSILON_PER_POINT * n,
        )

    # One untimed pass absorbs allocator and cache warmup; the timed
    # repeats then run round-robin over the sizes so a transient slow
    # period shifts every size together instead of skewing one of them.
    for n in sizes:
        scan, model = scaling_scene(n, seed, density=density)
        register(scan, model, Pose.identity(), config_for(n))

    per_iter_ms = {n: [] for n in sizes}
    iteration_counts = {n: [] for n in sizes}
    for r in range(repeats):
        for n in sizes:
            scan, model = scaling_scene(n, seed + 1000 * r, density=density)
            start = time.perf_counter()
            result = register(scan, model, Pose.identity(), config_for(n))
            elapsed = time.perf_counter() - start
            per_iter_ms[n].append(1e3 * elapsed / result.iterations)
            iteration_counts[n].append(result.iterations)
    rows = [
        BenchRow(
            n=n,
            ms_per_iteration=float(np.median(per_iter_ms[n])),
            iterations=float(np.median(iteration_counts[n])),
        )
        for n in sizes
    ]
    slope = None
    if len(sizes) >= 2:
        slope = float(np.polyfit(
            np.log([row.n for row in rows]),
            np.log([row.ms_per_iteration for row in rows]),
            1,
        )[0])
    return rows, slope
