"""Command line: register point files, synthesize scenes, benchmark scaling.

Every option can also be set through an environment variable named after it
with the ``EMSCAN_`` prefix (``--max-iters`` reads ``EMSCAN_MAX_ITERS``).
The value is parsed with the flag's own type and arity: switches take
``1/true/yes/on`` or ``0/false/no/off`` (any case; empty is off), and
multi-valued options take values separated by whitespace or commas, exactly
3 for ``--pose0``, ``--pose`` and ``--gamma`` and at least 1 for ``--sizes``.
Any other value is an input error naming the variable.  Only the variables
of the subcommand that runs are read.  Explicit flags win over environment
values.

Exit codes: 0 on success, 1 on input or usage errors, 2 when registration
ran out of iterations without converging (the result is still printed).
"""

from __future__ import annotations

import argparse
import functools
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

_SWITCH_ON = ("1", "true", "yes", "on")
_SWITCH_OFF = ("", "0", "false", "no", "off")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code.  It
    reads its ``_option`` variables only when it parses, into the namespace,
    where a given flag overwrites them, and leaves itself as built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env_options: list[tuple[argparse.Action, str]] = []

    def parse_known_args(self, args=None, namespace=None):
        namespace = argparse.Namespace() if namespace is None else namespace
        for action, name in self.env_options:
            raw = os.environ.get(name)
            if raw is None:
                continue
            try:
                setattr(namespace, action.dest, _env_value(action, raw))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for {name}: {raw!r} ({exc})") from None
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT_ERROR)


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.lstrip("-").replace("-", "_").upper()


def _env_value(action: argparse.Action, raw: str):
    if action.nargs == 0:
        word = raw.strip().lower()
        if word not in _SWITCH_ON + _SWITCH_OFF:
            raise ValueError("a switch takes 1/true/yes/on or 0/false/no/off")
        return word in _SWITCH_ON
    cast = action.type or str
    if action.nargs is None:
        return cast(raw)
    values = [cast(tok) for tok in raw.replace(",", " ").split()]
    if action.nargs == "+" and not values:
        raise ValueError("needs at least 1 value")
    if isinstance(action.nargs, int) and len(values) != action.nargs:
        raise ValueError(f"needs exactly {action.nargs} values, got {len(values)}")
    return values


def _option(parser: _Parser, flag: str, **kwargs) -> None:
    """Add ``flag``; a set ``EMSCAN_<FLAG>`` gives its value where the flag is not given."""
    parser.env_options.append((parser.add_argument(flag, **kwargs), _env_name(flag)))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as built."""
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
    _option(reg, "--pose0", nargs=3, type=float, metavar=("TX", "TY", "THETA"),
            default=[0.0, 0.0, 0.0], help="initial pose guess (default: identity)")
    _option(reg, "--w", type=float, help="gate radius in meters (default: 3*sigma)")
    _option(reg, "--sigma", type=float, default=DEFAULT_SIGMA,
            help=f"isotropic noise std in meters (default {DEFAULT_SIGMA})")
    _option(reg, "--gamma", nargs=3, type=float, metavar=("G00", "G01", "G11"),
            help="full precision matrix entries; overrides --sigma")
    _option(reg, "--epsilon", type=float, default=DEFAULT_CONVERGENCE_EPSILON,
            help="log-likelihood convergence threshold")
    _option(reg, "--max-iters", type=int, default=DEFAULT_MAX_ITERATIONS,
            help="iteration budget")
    _option(reg, "--oracle", action="store_true",
            help="use the dense all-pairs reference implementation")
    _option(reg, "--regate", action="store_true",
            help="regate at each fixed point of EM on a gate")
    _option(reg, "--degrees", action="store_true", help="read and print angles in degrees")
    _option(reg, "--dump-graph", metavar="PATH",
            help="write 'j k prior posterior' edge lines to PATH")
    reg.set_defaults(func=cmd_register)

    syn = sub.add_parser(
        "synth", help="generate a synthetic scene",
        description="Write PREFIX_model.txt, PREFIX_scan.txt, PREFIX_truth.json.",
    )
    _option(syn, "--shape", default="rectangle", help=f"one of: {', '.join(SHAPES)}")
    _option(syn, "--n", type=int, default=200, help="number of contour points (>= 3)")
    _option(syn, "--pose", nargs=3, type=float, metavar=("TX", "TY", "THETA"),
            default=[0.0, 0.0, 0.0], help="ground-truth pose applied to the model")
    _option(syn, "--noise-sigma", type=float, default=0.0)
    _option(syn, "--outlier-fraction", type=float, default=0.0)
    _option(syn, "--seed", type=int, default=0)
    _option(syn, "--degrees", action="store_true", help="interpret the pose angle in degrees")
    _option(syn, "--out", metavar="PREFIX", help="output path prefix (required)")
    syn.set_defaults(func=cmd_synth)

    ben = sub.add_parser(
        "bench", help="measure per-iteration scaling",
        description="Time registration over scene sizes at fixed density.",
    )
    _option(ben, "--sizes", nargs="+", type=int, default=[1000, 2000, 4000, 8000],
            help="ascending scan sizes")
    _option(ben, "--repeats", type=int, default=3)
    _option(ben, "--seed", type=int, default=0)
    _option(ben, "--density", type=float, default=DEFAULT_DENSITY,
            help="points per square meter")
    _option(ben, "--w", type=float, default=DEFAULT_WINDOW, help="gate radius in meters")
    ben.set_defaults(func=cmd_bench)
    return parser


def _pose(values, degrees: bool) -> Pose:
    tx, ty, theta = values
    return Pose(tx, ty, math.radians(theta) if degrees else theta)


def _make_gamma(args) -> PrecisionMatrix:
    if args.gamma is not None:
        return PrecisionMatrix(*args.gamma)
    return PrecisionMatrix.isotropic(args.sigma)


def cmd_register(args) -> int:
    scan = load_points(args.scan)
    model = load_points(args.model)
    pose0 = _pose(args.pose0, args.degrees)
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
    if args.out is None:
        raise ValueError(f"synth needs --out PREFIX or {_env_name('--out')}")
    model, scan, truth = make_scene(
        args.shape, args.n, _pose(args.pose, args.degrees),
        noise_sigma=args.noise_sigma,
        outlier_fraction=args.outlier_fraction,
        seed=args.seed,
    )
    model_path = f"{args.out}_model.txt"
    scan_path = f"{args.out}_scan.txt"
    truth_path = f"{args.out}_truth.json"
    shape = truth["shape"]
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
    rows, slope = run_scaling(
        args.sizes, repeats=args.repeats, seed=args.seed,
        density=args.density, window=args.w,
    )
    print(f"{'N':>8}  {'ms/iteration':>14}  {'iterations':>10}")
    for row in rows:
        print(f"{row.n:>8}  {row.ms_per_iteration:>14.3f}  {row.iterations:>10.1f}")
    if slope is not None:
        print(f"log-log slope: {slope:.3f}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        # Parsing reads the chosen subcommand's EMSCAN_* variables, which may be bad.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # --help, or a usage error already reported
        return int(exc.code or 0)
    except (OSError, ValueError, ScanMatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
