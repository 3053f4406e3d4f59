#!/usr/bin/env python3
"""Per-iteration cost grows linearly with scene size.

Scenes keep a fixed point density while the area grows, so each scan point
gates a bounded number of candidates and one sweep touches O(n) edges.
The log-log slope of per-iteration time against n should sit near 1; a
quadratic method would show 2.
"""

from emscan import run_scaling

sizes = [500, 1000, 2000, 4000, 8000]
rows, slope = run_scaling(sizes, repeats=3, seed=0)

print(f"{'n':>6}  {'ms/iteration':>13}  {'sweeps':>7}")
for row in rows:
    print(f"{row.n:>6}  {row.ms_per_iteration:>13.2f}  {row.iterations:>7.1f}")
print(f"\nlog-log slope: {slope:.3f}  (1.0 is ideal linear scaling)")
print("sweep counts stay flat, so total cost is also linear for tracking-style scenes")
