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

__all__ = ["MatchGraph", "build_graph", "dump_graph"]


@dataclass
class MatchGraph:
    """Gated matches in CSR-style edge arrays grouped by scan point.

    The edge arrays are parallel and sorted by (scan_idx, model_idx);
    ``row_start[j]:row_start[j + 1]`` slices them for scan point ``j``.
    ``scan_e`` and ``model_e`` hold each edge's two points, gathered once
    here as C-contiguous ``(2, E)`` coordinate columns, so the E-step, M-step
    and covariance unpack them as ``sx, sy = graph.scan_e`` and work on
    contiguous x and y columns without re-gathering.
    ``prior`` is uniform over each row, and the E-step reads it once per row,
    at the row's first edge: a non-uniform prior written into it is not
    honoured.  ``posterior`` is the only mutable field; it is rewritten by
    the E-step and owned by a single registration loop at a time.
    """

    scan: np.ndarray        # (n, 2) scan points
    model: np.ndarray       # (m, 2) model points, untransformed
    scan_idx: np.ndarray    # (E,) int64, non-decreasing
    model_idx: np.ndarray   # (E,) int64, ascending within each row
    scan_e: np.ndarray      # (2, E) scan[scan_idx].T, C-contiguous
    model_e: np.ndarray     # (2, E) model[model_idx].T, untransformed, C-contiguous
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

    @classmethod
    def from_edges(cls, scan, model, scan_idx, model_idx) -> "MatchGraph":
        """Graph over edges sorted by (scan_idx, model_idx), with uniform priors per row."""
        counts = np.bincount(scan_idx, minlength=scan.shape[0])
        prior = np.repeat(np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0), counts)
        return cls(scan=scan, model=model, scan_idx=scan_idx, model_idx=model_idx,
                   scan_e=np.take(scan.T, scan_idx, axis=1),
                   model_e=np.take(model.T, model_idx, axis=1),
                   prior=prior, posterior=prior.copy(),
                   row_start=np.concatenate(([0], np.cumsum(counts))))

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

    scan_idx, model_idx = GridIndex(pose0.apply(model), w).query_pairs(scan)
    # Sorting the unique (scan, model) keys themselves is cheaper than argsort.
    scan_idx, model_idx = np.divmod(np.sort(scan_idx * model.shape[0] + model_idx),
                                    model.shape[0])
    return MatchGraph.from_edges(scan, model, scan_idx, model_idx)


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
