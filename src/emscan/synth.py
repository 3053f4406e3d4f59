"""Synthetic scenes: contour models, noisy transformed scans, planted outliers."""

from __future__ import annotations

import numpy as np

from .geometry import Pose, as_point_array

__all__ = ["SHAPES", "make_scene", "sample_contour"]

SHAPES = ("rectangle", "circle", "l-shape")

_RECT_HALF_W = 2.0   # 4 m x 2 m rectangle centered at the origin
_RECT_HALF_H = 1.0
_CIRCLE_RADIUS = 1.5
_L_VERTICES = ((2.0, 0.0), (0.0, 0.0), (0.0, 3.0))  # corner wall, arms 2 m and 3 m
#: Planted outliers sit at least this far outside the scene's reach.
OUTLIER_CLEARANCE = 5.0


def _polyline_arc_points(vertices: np.ndarray, arcs: np.ndarray) -> np.ndarray:
    seg = np.diff(vertices, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    arcs = np.clip(arcs, 0.0, cum[-1])
    idx = np.clip(np.searchsorted(cum, arcs, side="right") - 1, 0, len(seg) - 1)
    frac = (arcs - cum[idx]) / seg_len[idx]
    return vertices[idx] + frac[:, None] * seg[idx]


def sample_contour(shape: str, n_points: int) -> np.ndarray:
    """``n_points`` arc-length-uniform samples of a canonical contour."""
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")
    shape = shape.lower()
    if shape == "rectangle":
        corners = np.array([
            (-_RECT_HALF_W, -_RECT_HALF_H),
            (_RECT_HALF_W, -_RECT_HALF_H),
            (_RECT_HALF_W, _RECT_HALF_H),
            (-_RECT_HALF_W, _RECT_HALF_H),
            (-_RECT_HALF_W, -_RECT_HALF_H),
        ])
        perimeter = 4.0 * (_RECT_HALF_W + _RECT_HALF_H)
        arcs = perimeter * np.arange(n_points) / n_points
        return _polyline_arc_points(corners, arcs)
    if shape == "circle":
        angles = 2.0 * np.pi * np.arange(n_points) / n_points
        return _CIRCLE_RADIUS * np.column_stack((np.cos(angles), np.sin(angles)))
    if shape == "l-shape":
        vertices = np.asarray(_L_VERTICES, dtype=float)
        length = np.hypot(*np.diff(vertices, axis=0).T).sum()
        arcs = length * np.arange(n_points) / (n_points - 1)
        return _polyline_arc_points(vertices, arcs)
    raise ValueError(f"unknown shape {shape!r}; choose one of {', '.join(SHAPES)}")


def make_scene(shape: str, n_points: int, pose: Pose, noise_sigma: float = 0.0,
               outlier_fraction: float = 0.0, seed: int = 0):
    """Model contour plus a transformed, noisy scan with planted outliers.

    The scan is the model under ``pose`` plus isotropic Gaussian noise.
    ``round(outlier_fraction * n_points)`` scan points are replaced by
    points on a ring at least OUTLIER_CLEARANCE beyond the transformed
    model's reach, so they sit outside any sane gate radius.  Fully
    deterministic for a fixed seed.

    Returns ``(model, scan, truth)`` where ``truth`` is a JSON-ready dict
    recording the ground-truth pose and generation parameters.
    """
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError(f"outlier_fraction must be in [0, 1], got {outlier_fraction}")
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    model = sample_contour(shape, n_points)
    rng = np.random.default_rng(seed)

    projected = pose.apply(model)
    scan = projected.copy()
    if noise_sigma > 0.0:
        scan = scan + rng.normal(0.0, noise_sigma, scan.shape)

    n_outliers = int(round(outlier_fraction * n_points))
    if n_outliers:
        which = rng.choice(n_points, size=n_outliers, replace=False)
        center = projected.mean(axis=0)
        reach = float(np.hypot(*(projected - center).T).max())
        radius = reach + OUTLIER_CLEARANCE + rng.uniform(0.0, 1.0, n_outliers)
        angle = rng.uniform(0.0, 2.0 * np.pi, n_outliers)
        scan[which] = center + np.column_stack((radius * np.cos(angle),
                                                radius * np.sin(angle)))

    truth = {
        "schema_version": 1,
        "shape": shape.lower(),
        "n_points": int(n_points),
        "pose": {"tx": pose.tx, "ty": pose.ty, "theta": pose.theta},
        "noise_sigma": float(noise_sigma),
        "outlier_fraction": float(outlier_fraction),
        "n_outliers": n_outliers,
        "outlier_clearance": OUTLIER_CLEARANCE,
        "seed": int(seed),
    }
    return as_point_array(model), as_point_array(scan), truth
