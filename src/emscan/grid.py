"""Uniform hash grid over 2D points for fixed-radius neighbor queries.

The cell size is the query radius (widened slightly, see below), so the
3x3 block of cells around a query's cell always covers the full search disk
(any point within radius W of a query differs by at most one cell index per
axis).  With bounded point density each query touches at most nine cells,
giving O(1) amortized cost per query and O(n) construction.

Cell keys count cells from the points' minimum corner.  The cell is wider
than the radius by a relative 2**-20 and keys are capped at 2**30, so the
rounding of ``(p - corner) / cell`` never moves a point within the radius
two cells away.  The grid therefore returns exactly what an exhaustive scan
returns, or refuses the point set at build time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonPositiveRadius, ScanMatchError
from .geometry import Point, as_point_array

__all__ = ["GridIndex"]

_NEIGHBOR_OFFSETS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
_CELL_WIDENING = 1.0 + 2.0**-20
_MAX_KEY = 2**30


class GridIndex:
    """Grid over a fixed point set; immutable once built.

    Matching uses the strict inequality ``||p - q|| < radius``; duplicate
    points are kept and all returned.  Queries are safe to run concurrently
    after construction.
    """

    def __init__(self, points, radius: float):
        if not radius > 0.0:
            raise NonPositiveRadius(f"radius must be > 0, got {radius}")
        self._points = as_point_array(points)
        self._radius = float(radius)
        self._radius_sq = self._radius * self._radius
        self._cell_size = self._radius * _CELL_WIDENING
        self._origin = (0.0, 0.0)

        buckets: dict[tuple[int, int], list[int]] = {}
        if len(self._points):
            self._origin = tuple(self._points.min(axis=0).tolist())
            with np.errstate(over="ignore", invalid="ignore"):
                keys = np.floor((self._points - self._origin) / self._cell_size)
            if not (keys < _MAX_KEY).all():     # also false for inf and nan
                raise ScanMatchError(
                    f"point set spans more than {_MAX_KEY} cells of {self._radius} m")
            for i, key in enumerate(map(tuple, keys.astype(np.int64).tolist())):
                buckets.setdefault(key, []).append(i)
        self._cells = {k: np.asarray(v, dtype=np.int64) for k, v in buckets.items()}

    def __len__(self) -> int:
        return len(self._points)

    @property
    def radius(self) -> float:
        return self._radius

    @property
    def cell_size(self) -> float:
        return self._cell_size

    @property
    def occupied_cells(self) -> int:
        return len(self._cells)

    def query_radius(self, q) -> np.ndarray:
        """Indices ``i`` with ``||points[i] - q|| < radius``.

        The order is unspecified but deterministic for a fixed build.  A
        query whose cell key is out of range has no neighbors and returns
        nothing.
        """
        qa = np.asarray(tuple(q) if isinstance(q, Point) else q, dtype=float)
        if qa.shape != (2,):
            raise ValueError(f"expected a single 2D query point, got shape {qa.shape}")
        kx = (float(qa[0]) - self._origin[0]) / self._cell_size
        ky = (float(qa[1]) - self._origin[1]) / self._cell_size
        if not (abs(kx) <= _MAX_KEY + 1 and abs(ky) <= _MAX_KEY + 1):
            return np.empty(0, dtype=np.int64)
        cx, cy = math.floor(kx), math.floor(ky)
        hits = []
        for dx, dy in _NEIGHBOR_OFFSETS:
            bucket = self._cells.get((cx + dx, cy + dy))
            if bucket is not None:
                hits.append(bucket)
        if not hits:
            return np.empty(0, dtype=np.int64)
        cand = np.concatenate(hits)
        d = self._points[cand] - qa
        mask = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < self._radius_sq
        return cand[mask]
