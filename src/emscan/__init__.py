"""Rigid 2D point-set registration by expectation-maximization.

Scan points are matched to gated model neighbors found through a uniform
hash grid, soft correspondence responsibilities are refined alternately
with a weighted rigid fit, and the result carries the aligning pose, a
residual covariance, and convergence diagnostics.  Per-call cost is linear
in the scan size for bounded-density scenes.
"""

from .bench import BenchRow, run_scaling, scaling_scene
from .em import (
    EmConfig,
    RegistrationResult,
    e_step,
    m_step,
    register,
    residual_covariance,
)
from .errors import (
    DegenerateGeometry,
    DegenerateRow,
    EmptyInput,
    NoCorrespondences,
    NoInliers,
    NonPositiveRadius,
    ScanMatchError,
)
from .geometry import (
    Point,
    Pose,
    PrecisionMatrix,
    as_point_array,
    edge_density,
    mahalanobis_sq,
    wrap_angle,
)
from .graph import MatchGraph, build_graph, dump_graph, outlier_count
from .grid import GridIndex
from .oracles import (
    brute_force_neighbors,
    dense_em_register,
    numerical_m_step,
    slow_residual_covariance,
)
from .scanio import load_points, save_points
from .synth import SHAPES, make_scene, sample_contour

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "DegenerateGeometry",
    "DegenerateRow",
    "EmConfig",
    "EmptyInput",
    "GridIndex",
    "MatchGraph",
    "NoCorrespondences",
    "NoInliers",
    "NonPositiveRadius",
    "Point",
    "Pose",
    "PrecisionMatrix",
    "RegistrationResult",
    "SHAPES",
    "ScanMatchError",
    "as_point_array",
    "brute_force_neighbors",
    "build_graph",
    "dense_em_register",
    "dump_graph",
    "e_step",
    "edge_density",
    "load_points",
    "m_step",
    "mahalanobis_sq",
    "make_scene",
    "numerical_m_step",
    "outlier_count",
    "register",
    "residual_covariance",
    "run_scaling",
    "sample_contour",
    "save_points",
    "scaling_scene",
    "slow_residual_covariance",
    "wrap_angle",
]
