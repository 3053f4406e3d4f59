"""Slow reference computations that only the test suite uses.

Each recomputes one library answer from first principles and shares none
of its algebra: an edge-by-edge residual covariance, and a pose fit by grid
search plus exact-derivative Newton descent on the weighted fit objective,
and a point-file parser that walks the file one line at a time.  The
exception is ``column_m_step``, the library's M-step algebra on gathered
point columns instead of the feature matrix, against which the feature
form's pose is checked.
"""

import math

import numpy as np

from emscan import DegenerateGeometry, MatchGraph, NoCorrespondences, NoInliers, Pose
from emscan.em import _MIN_TOTAL_WEIGHT, _anisotropic_theta
from emscan.oracles import _descend, _fit_objective


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


def numerical_m_step(graph: MatchGraph, gamma, *, angle_samples: int = 72) -> Pose:
    """Minimize the weighted fit objective by grid search plus descent.

    Scans ``angle_samples`` rotations; for each one the translation is
    centered on the weighted-centroid offset and jittered over a small
    grid, and the best cell seeds an exact-derivative Newton refinement in
    ``(tx, ty, theta)``.  Matches ``m_step`` to about 1e-5 in pose on sane
    instances while sharing none of its algebra.
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


def column_m_step(graph: MatchGraph, gamma) -> Pose:
    """The M-step on gathered x and y columns of the edges' points, centred
    at their weighted centroids in the model's own frame."""
    w = graph.posterior
    if graph.edge_count == 0 or not np.any(w > 0.0):
        raise NoCorrespondences("all responsibilities are zero")
    total = float(w.sum())
    if total < _MIN_TOTAL_WEIGHT:
        raise DegenerateGeometry(f"total correspondence weight {total:.3e} is too small")
    sx, sy = np.take(graph.scan.T, graph.scan_idx, axis=1)
    mx, my = np.take(graph.model.T, graph.model_idx, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as the error below
        c_s = (float(w @ sx) / total, float(w @ sy) / total)
        c_m = (float(w @ mx) / total, float(w @ my) / total)
        mtx, mty = mx - c_m[0], my - c_m[1]
        stx, sty = sx - c_s[0], sy - c_s[1]
        wx, wy = w * mtx, w * mty
        h = np.array([[wx @ stx, wx @ sty], [wy @ stx, wy @ sty]])
        if gamma.is_isotropic:
            moments = (h,)
        else:
            b01 = wx @ mty
            moments = (h, np.array([[wx @ mtx, b01], [b01, wy @ mty]]))
        # no value formed from the moments below exceeds this in size
        size = 2.0 * sum(float(np.abs(m).sum()) for m in moments)
    if not math.isfinite(size):
        raise DegenerateGeometry("the weighted moments of the pairs overflow")
    theta = math.atan2(h[0, 1] - h[1, 0], h[0, 0] + h[1, 1])
    if not gamma.is_isotropic:
        theta = _anisotropic_theta(gamma, *moments, theta)
    c, s = math.cos(theta), math.sin(theta)
    return Pose(c_s[0] - (c * c_m[0] - s * c_m[1]),
                c_s[1] - (s * c_m[0] + c * c_m[1]),
                theta)


def line_by_line_load_points(path) -> np.ndarray:
    """Parse a point file into an ``(n, 2)`` array.

    Blank lines and lines starting with ``#`` are skipped.  Anything else
    must be two whitespace-separated floats; violations raise ValueError
    with the offending line number.
    """
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x y', got {line!r}")
            try:
                pts.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number pair: {line!r}") from None
    if not pts:
        return np.empty((0, 2))
    arr = np.array(pts, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite coordinates")
    return arr
