"""Gated correspondence graph between a scan and a model point set.

The graph pairs each scan point with every model point that falls inside a
window of radius W around it, evaluated with the model projected by the
gate pose.  Candidate pairs carry a uniform prior 1/|neighbors| and a
responsibility that expectation-maximization updates in place.  Scan points
with no gated neighbor are outliers: they own no edges and never enter the
EM sums.
"""

from __future__ import annotations

import functools
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
    ``features`` is the C-contiguous ``(5, E)`` matrix ``F`` of per-edge rows
    ``1``, ``delta = s - anchor(m)`` and ``q = anchor(m) - center``, relative
    to the ``anchor`` (the gate pose).  At any pose an edge's residual is
    ``delta + L q + d``, ``L`` and ``d`` set by the pose, so the E-step reads
    every residual off one ``(2, 5)`` matrix times ``F``.  ``F`` is built on
    first use, so a gate that is only compared builds none.  ``prior`` is uniform over each row, and the E-step reads it once per row,
    at the row's first edge: a non-uniform prior written into it is not
    honoured.  ``posterior`` is rewritten by the E-step and owned by a single
    registration loop at a time.
    """

    scan: np.ndarray        # (n, 2) scan points
    model: np.ndarray       # (m, 2) model points, untransformed
    scan_idx: np.ndarray    # (E,) int64, non-decreasing
    model_idx: np.ndarray   # (E,) int64, ascending within each row
    anchor: Pose            # pose the features are relative to
    center: tuple[float, float]  # mean of anchor(m) over the edges
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

    @functools.cached_property
    def nonempty_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """First edge and edge count of every scan point holding an edge."""
        counts = self.neighbor_counts
        return self.row_start[:-1][counts > 0], counts[counts > 0]

    @property
    def inlier_count(self) -> int:
        """Scan points with at least one gated neighbor (n_P)."""
        return int(self.nonempty_rows[1].size)

    @classmethod
    def from_edges(cls, scan, model, scan_idx, model_idx,
                   anchor: Pose = Pose(0.0, 0.0, 0.0)) -> "MatchGraph":
        """Graph over edges sorted by (scan_idx, model_idx), with uniform priors per
        row and features relative to ``anchor``."""
        counts = np.bincount(scan_idx, minlength=scan.shape[0])
        prior = np.repeat(np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0), counts)
        uses = np.bincount(model_idx, minlength=model.shape[0])
        center = anchor.apply(uses @ model / max(model_idx.shape[0], 1))
        return cls(scan=scan, model=model, scan_idx=scan_idx, model_idx=model_idx,
                   anchor=anchor, center=tuple(center.tolist()),
                   prior=prior, posterior=prior.copy(),
                   row_start=np.concatenate(([0], np.cumsum(counts))))

    @functools.cached_property
    def features(self) -> np.ndarray:
        """``F``: the rows ``1``, ``delta`` and ``q`` of every edge."""
        f = np.empty((5, self.edge_count))
        f[0] = 1.0
        d, q = f[1:3], f[3:5]   # the indices are in range: "clip" takes no buffer
        np.take(self.anchor.apply(self.model).T, self.model_idx, axis=1, out=q, mode="clip")
        np.take(self.scan.T, self.scan_idx, axis=1, out=d, mode="clip")
        d -= q
        q -= np.reshape(self.center, (2, 1))
        return f

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
    return MatchGraph.from_edges(scan, model, scan_idx, model_idx, pose0)


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
