"""Command line: register point files, synthesize scenes, benchmark scaling.

Every option can also be set through an environment variable named after it
with the ``EMSCAN_`` prefix (``--max-iters`` reads ``EMSCAN_MAX_ITERS``,
multi-valued options take whitespace-separated values).  Explicit flags win
over environment values.

Exit codes: 0 on success, 1 on input or usage errors, 2 when registration
ran out of iterations without converging (the result is still printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .bench import DEFAULT_DENSITY, DEFAULT_WINDOW, run_scaling
from .em import (
    DEFAULT_CONVERGENCE_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    EmConfig,
    register,
)
from .errors import ScanMatchError
from .geometry import Pose, PrecisionMatrix
from .graph import dump_graph
from .oracles import dense_em_register
from .scanio import load_points, save_points
from .synth import SHAPES, make_scene

__all__ = ["main"]

ENV_PREFIX = "EMSCAN_"
DEFAULT_SIGMA = 0.05

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2

_TRUTHY = {"1", "true", "yes", "on"}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT_ERROR)


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.lstrip("-").replace("-", "_").upper()


def _env(flag: str, cast, fallback):
    raw = os.environ.get(_env_name(flag))
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for {_env_name(flag)}: {raw!r} ({exc})") from None


def _env_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _env_ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _env_bool(raw: str) -> bool:
    return raw.strip().lower() in _TRUTHY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emscan",
        description="Rigid 2D point-set registration by expectation-maximization.",
        epilog=f"Options also read environment variables with the {ENV_PREFIX} prefix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser(
        "register", help="align a scan file to a model file",
        description="Align SCAN to MODEL; prints a JSON result record.",
    )
    reg.add_argument("scan", help="scan point file (lines of 'x y')")
    reg.add_argument("model", help="model point file (lines of 'x y')")
    reg.add_argument("--pose0", nargs=3, type=float, metavar=("TX", "TY", "THETA"),
                     default=_env("--pose0", _env_floats, [0.0, 0.0, 0.0]),
                     help="initial pose guess (default: identity)")
    reg.add_argument("--w", type=float, default=_env("--w", float, None),
                     help="gate radius in meters (default: 3*sigma)")
    reg.add_argument("--sigma", type=float,
                     default=_env("--sigma", float, DEFAULT_SIGMA),
                     help=f"isotropic noise std in meters (default {DEFAULT_SIGMA})")
    reg.add_argument("--gamma", nargs=3, type=float, metavar=("G00", "G01", "G11"),
                     default=_env("--gamma", _env_floats, None),
                     help="full precision matrix entries; overrides --sigma")
    reg.add_argument("--epsilon", type=float,
                     default=_env("--epsilon", float, DEFAULT_CONVERGENCE_EPSILON),
                     help="log-likelihood convergence threshold")
    reg.add_argument("--max-iters", type=int,
                     default=_env("--max-iters", int, DEFAULT_MAX_ITERATIONS),
                     help="iteration budget")
    reg.add_argument("--oracle", action="store_true",
                     default=_env("--oracle", _env_bool, False),
                     help="use the dense all-pairs reference implementation")
    reg.add_argument("--regate", action="store_true",
                     default=_env("--regate", _env_bool, False),
                     help="rebuild the gate at the current pose every sweep")
    reg.add_argument("--degrees", action="store_true",
                     default=_env("--degrees", _env_bool, False),
                     help="read and print angles in degrees")
    reg.add_argument("--dump-graph", metavar="PATH",
                     default=_env("--dump-graph", str, None),
                     help="write 'j k prior posterior' edge lines to PATH")
    reg.set_defaults(func=cmd_register)

    syn = sub.add_parser(
        "synth", help="generate a synthetic scene",
        description="Write PREFIX_model.txt, PREFIX_scan.txt, PREFIX_truth.json.",
    )
    syn.add_argument("--shape", default=_env("--shape", str, "rectangle"),
                     help=f"one of: {', '.join(SHAPES)}")
    syn.add_argument("--n", type=int, default=_env("--n", int, 200),
                     help="number of contour points (>= 3)")
    syn.add_argument("--pose", nargs=3, type=float, metavar=("TX", "TY", "THETA"),
                     default=_env("--pose", _env_floats, [0.0, 0.0, 0.0]),
                     help="ground-truth pose applied to the model")
    syn.add_argument("--noise-sigma", type=float,
                     default=_env("--noise-sigma", float, 0.0))
    syn.add_argument("--outlier-fraction", type=float,
                     default=_env("--outlier-fraction", float, 0.0))
    syn.add_argument("--seed", type=int, default=_env("--seed", int, 0))
    syn.add_argument("--degrees", action="store_true",
                     default=_env("--degrees", _env_bool, False),
                     help="interpret the pose angle in degrees")
    syn.add_argument("--out", required=True, metavar="PREFIX",
                     help="output path prefix")
    syn.set_defaults(func=cmd_synth)

    ben = sub.add_parser(
        "bench", help="measure per-iteration scaling",
        description="Time registration over scene sizes at fixed density.",
    )
    ben.add_argument("--sizes", nargs="+", type=int,
                     default=_env("--sizes", _env_ints, [1000, 2000, 4000, 8000]),
                     help="ascending scan sizes")
    ben.add_argument("--repeats", type=int, default=_env("--repeats", int, 3))
    ben.add_argument("--seed", type=int, default=_env("--seed", int, 0))
    ben.add_argument("--density", type=float,
                     default=_env("--density", float, DEFAULT_DENSITY),
                     help="points per square meter")
    ben.add_argument("--w", type=float, default=_env("--w", float, DEFAULT_WINDOW),
                     help="gate radius in meters")
    ben.set_defaults(func=cmd_bench)
    return parser


def _triple(values, flag: str) -> list[float]:
    if len(values) != 3:
        raise ValueError(f"{flag} needs exactly 3 values, got {len(values)}")
    return values


def _make_gamma(args) -> PrecisionMatrix:
    if args.gamma is not None:
        g00, g01, g11 = _triple(args.gamma, "--gamma")
        return PrecisionMatrix(g00, g01, g11)
    return PrecisionMatrix.isotropic(args.sigma)


def cmd_register(args) -> int:
    scan = load_points(args.scan)
    model = load_points(args.model)

    pose0_vals = _triple(args.pose0, "--pose0")
    theta0 = math.radians(pose0_vals[2]) if args.degrees else pose0_vals[2]
    pose0 = Pose(pose0_vals[0], pose0_vals[1], theta0)
    config = EmConfig(
        gamma=_make_gamma(args),
        window_w=args.w,
        max_iterations=args.max_iters,
        convergence_epsilon=args.epsilon,
        regate_each_iteration=args.regate,
    )
    run = dense_em_register if args.oracle else register
    start = time.perf_counter()
    result = run(scan, model, pose0, config)
    elapsed = time.perf_counter() - start

    if args.dump_graph:
        dump_graph(result.graph, args.dump_graph)

    theta_out = math.degrees(result.pose.theta) if args.degrees else result.pose.theta
    record = {
        "schema_version": 1,
        "angle_unit": "degrees" if args.degrees else "radians",
        "pose": {"tx": result.pose.tx, "ty": result.pose.ty, "theta": theta_out},
        "residual_covariance": [[float(v) for v in row]
                                for row in result.residual_covariance],
        "iterations": result.iterations,
        "converged": result.converged,
        "loglik_trace": [float(v) for v in result.loglik_trace],
        "n_inliers": result.n_inliers,
        "n_scan": int(scan.shape[0]),
        "n_model": int(model.shape[0]),
        "window": config.resolved_window(),
        "oracle": bool(args.oracle),
        "wall_time_s": elapsed,
    }
    print(json.dumps(record, indent=2))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_synth(args) -> int:
    shape = args.shape.lower()
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {args.shape!r}; choose one of {', '.join(SHAPES)}")
    pose_vals = _triple(args.pose, "--pose")
    theta = math.radians(pose_vals[2]) if args.degrees else pose_vals[2]
    pose = Pose(pose_vals[0], pose_vals[1], theta)
    model, scan, truth = make_scene(
        shape, args.n, pose,
        noise_sigma=args.noise_sigma,
        outlier_fraction=args.outlier_fraction,
        seed=args.seed,
    )
    model_path = f"{args.out}_model.txt"
    scan_path = f"{args.out}_scan.txt"
    truth_path = f"{args.out}_truth.json"
    save_points(model_path, model, header=f"{shape} model, n={args.n}, seed={args.seed}")
    save_points(scan_path, scan, header=f"{shape} scan, n={args.n}, seed={args.seed}")
    truth["model_file"] = os.path.basename(model_path)
    truth["scan_file"] = os.path.basename(scan_path)
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    print(model_path)
    print(scan_path)
    print(truth_path)
    return EXIT_OK


def cmd_bench(args) -> int:
    if sorted(args.sizes) != args.sizes:
        raise ValueError(f"sizes must be ascending, got {args.sizes}")
    rows, slope = run_scaling(
        args.sizes, repeats=args.repeats, seed=args.seed,
        density=args.density, window=args.w,
    )
    print(f"{'N':>8}  {'ms/iteration':>14}  {'iterations':>10}")
    for row in rows:
        print(f"{row.n:>8}  {row.mean_ms_per_iteration:>14.3f}  {row.mean_iterations:>10.1f}")
    if slope is not None:
        print(f"log-log slope: {slope:.3f}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        # Building the parser reads the EMSCAN_* defaults, which may be bad.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # --help, or a usage error already reported
        return int(exc.code or 0)
    except (OSError, ValueError, ScanMatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
