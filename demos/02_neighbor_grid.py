#!/usr/bin/env python3
"""Fixed-radius neighbor search on a uniform grid stored as a sorted cell list.

The grid's cell size equals the query radius, so looking at the 3x3 block
of cells around a query covers the whole search disk.  Queries therefore
cost O(log n) plus their candidates for bounded point density, against O(n)
for the exhaustive scan, and return exactly the same neighbor sets.
``query_pairs`` answers a whole batch of queries in one pass; this is what
the match graph's gate calls.
"""

import time

import numpy as np

from emscan import GridIndex, brute_force_neighbors

rng = np.random.default_rng(0)
n = 20_000
points = rng.uniform(0, 30, (n, 2))
radius = 0.5

index = GridIndex(points, radius)
print(f"indexed {len(index)} points into {index.occupied_cells} cells "
      f"of size {index.cell_size} m")

queries = rng.uniform(0, 30, (200, 2))

t0 = time.perf_counter()
fast = [index.query_radius(q) for q in queries]
t_fast = time.perf_counter() - t0

t0 = time.perf_counter()
slow = [brute_force_neighbors(points, q, radius) for q in queries]
t_slow = time.perf_counter() - t0

t0 = time.perf_counter()
query_idx, point_idx = index.query_pairs(queries)
t_bulk = time.perf_counter() - t0
bulk = [point_idx[query_idx == i] for i in range(len(queries))]

agree = all(set(f.tolist()) == set(s.tolist()) for f, s in zip(fast, slow))
bulk_agree = all(np.array_equal(np.sort(b), np.sort(f)) for b, f in zip(bulk, fast))
sizes = [len(f) for f in fast]
print(f"200 queries: grid {1e3 * t_fast:.1f} ms, exhaustive {1e3 * t_slow:.1f} ms "
      f"({t_slow / t_fast:.0f}x)")
print(f"neighbor sets identical: {agree}")
print(f"one query_pairs call: {1e3 * t_bulk:.1f} ms for {len(point_idx)} pairs, "
      f"same neighbors as the per-query loop: {bulk_agree}")
print(f"neighbors per query: min {min(sizes)}, mean {np.mean(sizes):.1f}, "
      f"max {max(sizes)}")

# the gate is strict: a point exactly at the radius is not a neighbor
lone = GridIndex([(radius, 0.0)], radius)
print(f"point exactly at the radius matches: {lone.query_radius((0.0, 0.0)).size > 0}")
