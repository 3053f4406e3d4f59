#!/usr/bin/env python3
"""Building the gated correspondence graph.

Each scan point is linked to every model point within the window radius W,
evaluated with the model projected by the initial pose guess.  Candidates
start with a uniform prior over the row; scan points with no candidate are
outliers and never enter the estimation.
"""

import io
import math

import numpy as np

from emscan import Pose, build_graph, dump_graph, make_scene

truth = Pose(0.15, -0.1, math.radians(3.0))
model, scan, info = make_scene("l-shape", 60, truth, noise_sigma=0.02,
                               outlier_fraction=0.1, seed=4)
print(f"scene: {info['shape']}, {info['n_points']} points, "
      f"{info['n_outliers']} planted outliers")

graph = build_graph(scan, model, Pose.identity(), w=0.5)
counts = graph.neighbor_counts
print(f"edges: {graph.edge_count}, inlier scan points: {graph.inlier_count}, "
      f"outliers: {graph.n_scan - graph.inlier_count}")
print(f"candidates per scan point: min {counts.min()}, "
      f"mean {counts.mean():.1f}, max {counts.max()}")

j = int(np.argmax(counts))
row = slice(graph.row_start[j], graph.row_start[j + 1])
print(f"\nscan point {j} has {counts[j]} candidates, "
      f"each with prior 1/{counts[j]} = {graph.prior[row][0]:.4f}")
print(f"priors sum to {graph.prior[row].sum():.12f}")

buf = io.StringIO()
dump_graph(graph, buf)
print("\nfirst five edge-dump lines (j k prior posterior):")
for line in buf.getvalue().splitlines()[:5]:
    print(" ", line)
print("responsibilities equal the priors until the first E-step runs")
