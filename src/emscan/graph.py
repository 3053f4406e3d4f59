"""Gated correspondence graph between a scan and a model point set.

The graph pairs each scan point with every model point that falls inside a
window of radius W around it, evaluated with the model projected by the
gate pose.  Candidate pairs carry a uniform prior 1/|neighbors| and a
responsibility that expectation-maximization updates in place.  Scan points
with no gated neighbor are outliers: they own no edges and never enter the
EM sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NonPositiveRadius
from .geometry import Pose, as_point_array
from .grid import GridIndex

__all__ = ["MatchGraph", "build_graph", "dump_graph", "outlier_count"]


@dataclass
class MatchGraph:
    """Gated matches in CSR-style edge arrays grouped by scan point.

    The edge arrays are parallel and sorted by (scan_idx, model_idx);
    ``row_start[j]:row_start[j + 1]`` slices them for scan point ``j``.
    ``scan_e`` and ``model_e`` hold each edge's two points, gathered once
    here so the E-step, M-step and covariance do not re-gather them.
    ``posterior`` is the only mutable field; it is rewritten by the E-step
    and owned by a single registration loop at a time.
    """

    scan: np.ndarray        # (n, 2) scan points
    model: np.ndarray       # (m, 2) model points, untransformed
    window: float           # gate radius W in meters
    scan_idx: np.ndarray    # (E,) int64, non-decreasing
    model_idx: np.ndarray   # (E,) int64, ascending within each row
    scan_e: np.ndarray      # (E, 2) scan[scan_idx]
    model_e: np.ndarray     # (E, 2) model[model_idx], untransformed
    prior: np.ndarray       # (E,) uniform 1/|N(s_j)| per row
    posterior: np.ndarray   # (E,) responsibilities, initialized to prior
    row_start: np.ndarray   # (n + 1,) int64 offsets into the edge arrays

    @property
    def n_scan(self) -> int:
        return self.scan.shape[0]

    @property
    def n_model(self) -> int:
        return self.model.shape[0]

    @property
    def edge_count(self) -> int:
        return self.scan_idx.shape[0]

    @property
    def neighbor_counts(self) -> np.ndarray:
        """|N(s_j)| for every scan point j."""
        return np.diff(self.row_start)

    @property
    def inlier_count(self) -> int:
        """Scan points with at least one gated neighbor (n_P)."""
        return int(np.count_nonzero(self.neighbor_counts))

    def edge_set(self) -> set[tuple[int, int]]:
        """All (scan index, model index) pairs, for comparisons."""
        return set(zip(self.scan_idx.tolist(), self.model_idx.tolist()))


def build_graph(scan, model, pose0: Pose, w: float) -> MatchGraph:
    """Gate scan against the model projected by ``pose0`` with radius ``w``.

    Edges exist exactly for pairs with ``||s - pose0(m)|| < w``.  Priors are
    uniform over each scan point's neighbors.  Cost is O(n + m + E) via the
    grid index.

    Raises EmptyInput when either point set is empty and NonPositiveRadius
    when ``w <= 0``.
    """
    scan = as_point_array(scan)
    model = as_point_array(model)
    if scan.shape[0] == 0:
        raise EmptyInput("empty scan")
    if model.shape[0] == 0:
        raise EmptyInput("empty model")
    if not w > 0.0:
        raise NonPositiveRadius(f"window must be > 0, got {w}")

    index = GridIndex(pose0.apply(model), w)

    n = scan.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    rows = []
    for j in range(n):
        hits = index.query_radius(scan[j])
        if hits.size > 1:
            hits = np.sort(hits)
        counts[j] = hits.size
        if hits.size:
            rows.append(hits)

    row_start = np.concatenate(([0], np.cumsum(counts)))
    if rows:
        model_idx = np.concatenate(rows)
    else:
        model_idx = np.empty(0, dtype=np.int64)
    scan_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    prior = np.repeat(np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0), counts)

    return MatchGraph(
        scan=scan,
        model=model,
        window=float(w),
        scan_idx=scan_idx,
        model_idx=model_idx,
        scan_e=scan[scan_idx],
        model_e=model[model_idx],
        prior=prior,
        posterior=prior.copy(),
        row_start=row_start,
    )


def outlier_count(graph: MatchGraph) -> int:
    """Scan points with an empty gated neighborhood."""
    return graph.n_scan - graph.inlier_count


def dump_graph(graph: MatchGraph, destination) -> None:
    """Write the edge list as text lines ``j k prior posterior``.

    ``destination`` may be a path or an open text stream.
    """
    def _write(stream):
        for j, k, pri, post in zip(graph.scan_idx, graph.model_idx,
                                   graph.prior, graph.posterior):
            stream.write(f"{j} {k} {pri:.17g} {post:.17g}\n")

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            _write(fh)


def _row_reduce(values: np.ndarray, row_start: np.ndarray, ufunc, empty: float) -> np.ndarray:
    """Per-row ``ufunc`` reduction over CSR segments; ``empty`` fills empty rows."""
    counts = np.diff(row_start)
    out = np.full(counts.shape[0], empty)
    nonempty = counts > 0
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(values, row_start[:-1][nonempty])
    return out


def _row_sum(values: np.ndarray, row_start: np.ndarray) -> np.ndarray:
    return _row_reduce(values, row_start, np.add, 0.0)


def _row_max(values: np.ndarray, row_start: np.ndarray) -> np.ndarray:
    return _row_reduce(values, row_start, np.maximum, -np.inf)
