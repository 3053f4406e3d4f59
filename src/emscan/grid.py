"""Uniform grid over 2D points for fixed-radius neighbor queries, as a sorted cell list.

The cell size is the query radius (widened slightly, see below), so the 3x3
block of cells around a query's cell covers the whole search disk.  Cell
``(kx, ky)``, counted from the points' minimum corner, is packed into the
int64 key ``kx * 2**30 + ky``; the keys are stored sorted, with the argsort
that sorted them.  A block's three cells in one column have consecutive
keys, so ``searchsorted`` at the ends of three runs finds all nine cells,
for a whole batch of queries at once.

Exactness: the cell is wider than the radius by a relative 2**-20 and keys
are capped at 2**30, so the rounding of ``(p - corner) / cell`` never moves
a point within the radius two cells away.  For a radius of 0.5 or more, the
coordinates, the corner and the cell are first scaled by the power of two
that puts the radius in ``[0.5, 1)``; the scale is exact, and ``p - corner``
then cannot overflow, so a query far from the corner but near a point still
finds it.  Rows are clipped to ``[0, 2**30)`` and a column out of range keys
below or above every point, so packing loses no candidate.  Candidates, read
in key order from contiguous x and y columns, pass ``geometry._within_radius``,
the strict distance test of the exhaustive scan in ``oracles``.  The grid
returns exactly what that scan returns, or refuses the point set at build time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonPositiveRadius, ScanMatchError
from .geometry import _as_xy, _within_radius, as_point_array

__all__ = ["GridIndex"]

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
        points = as_point_array(points)
        self._radius = float(radius)
        self._cell_size = self._radius * _CELL_WIDENING
        # Keys are computed in units scaled by 2**-shift; see the module notes.
        self._shift = max(math.frexp(self._radius)[1], 0)
        self._scaled_cell = math.ldexp(self._radius, -self._shift) * _CELL_WIDENING
        origin = points.min(axis=0) if len(points) else np.zeros(2)
        self._scaled_origin = np.ldexp(origin, -self._shift)

        with np.errstate(over="ignore", invalid="ignore"):
            cells = np.floor(self._scaled_offset(points))
        if not (cells < _MAX_KEY).all():     # also false for inf and nan
            raise ScanMatchError(
                f"point set spans more than {_MAX_KEY} cells of {self._radius} m")
        cells = cells.astype(np.int64)
        keys = cells[:, 0] * _MAX_KEY + cells[:, 1]
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        # x and y of the points in key order, as contiguous rows.
        self._columns = np.take(points.T, self._order, axis=1)

    def _scaled_offset(self, p: np.ndarray) -> np.ndarray:
        """``(p - corner) / cell``, computed on the scaled coordinates."""
        return (np.ldexp(p, -self._shift) - self._scaled_origin) / self._scaled_cell

    def __len__(self) -> int:
        return self._order.size

    @property
    def cell_size(self) -> float:
        return self._cell_size

    @property
    def occupied_cells(self) -> int:
        return int(np.unique(self._keys).size)

    def query_pairs(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """All pairs ``(i, k)`` with ``||points[k] - queries[i]|| < radius``.

        Returns two parallel int64 arrays ``(query_idx, point_idx)``.
        ``query_idx`` is non-decreasing; the order of points within one
        query is unspecified but deterministic for a fixed build.  A query
        whose cell key is out of range has no neighbors, as has a
        non-finite one.  Costs O(q log n) plus the candidates of the nine
        cells around each query.
        """
        q = np.asarray(queries, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) query array, got shape {q.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            k = self._scaled_offset(q)
        # Out-of-range queries are moved to cell (-2, -2), whose block is empty.
        inside = (np.abs(k) <= _MAX_KEY + 1).all(axis=1)     # false for inf and nan
        cells = np.floor(np.where(inside[:, None], k, -2.0)).astype(np.int64)
        row_lo = np.maximum(cells[:, 1] - 1, 0)[:, None]
        row_hi = np.minimum(cells[:, 1] + 1, _MAX_KEY - 1)[:, None]
        columns = (cells[:, :1] + np.arange(-1, 2)) * _MAX_KEY
        lo = np.searchsorted(self._keys, columns + row_lo)
        hi = np.searchsorted(self._keys, columns + row_hi, side="right")
        counts = np.maximum(hi - lo, 0)

        per_query = counts.sum(axis=1)
        query_idx = np.repeat(np.arange(len(q), dtype=np.int64), per_query)
        counts = counts.ravel()
        run_start = np.cumsum(counts) - counts
        slots = np.repeat(lo.ravel() - run_start, counts)
        slots += np.arange(query_idx.size)
        # Far-apart finite points may differ by inf, which fails the test.
        with np.errstate(over="ignore"):
            dx = self._columns[0][slots] - np.repeat(q[:, 0], per_query)
            dy = self._columns[1][slots] - np.repeat(q[:, 1], per_query)
        keep = np.flatnonzero(_within_radius(dx, dy, self._radius))
        return query_idx[keep], self._order[slots[keep]]

    def query_radius(self, q) -> np.ndarray:
        """Indices ``i`` with ``||points[i] - q|| < radius``: one row of ``query_pairs``."""
        return self.query_pairs(_as_xy(q)[None])[1]
