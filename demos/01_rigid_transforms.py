#!/usr/bin/env python3
"""Poses, the Mahalanobis form, and the Gaussian match kernel.

A pose (tx, ty, theta) rotates a point by theta and then translates it.
Poses compose, invert, and wrap their angle to (-pi, pi]; the match kernel
scores a scan/model pair by the Mahalanobis distance of its residual.
"""

import math

import numpy as np

from emscan import (
    Point,
    Pose,
    PrecisionMatrix,
    edge_density,
    mahalanobis_sq,
)

print("== rigid transforms ==")
g = Pose(1.0, 2.0, math.pi / 2)
p = Point(1.0, 0.0)
moved = g.apply(p)
print(f"{g} applied to {tuple(p)} -> ({moved.x:.3f}, {moved.y:.3f})")

back = g.inverse().apply(moved)
print(f"inverse brings it back: ({back.x:.3f}, {back.y:.3f})")

a = Pose(0.5, 0.0, math.pi / 4)
chained = a.apply(g.apply(p))
composed = a.compose(g).apply(p)
print(f"a(g(p)) = ({chained.x:.6f}, {chained.y:.6f})")
print(f"a.compose(g)(p) = ({composed.x:.6f}, {composed.y:.6f})")

print()
print("== whole point arrays at once ==")
cloud = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
print(g.apply(cloud))

print()
print("== measurement precision and the gate kernel ==")
gamma = PrecisionMatrix.isotropic(0.1)   # 10 cm noise std -> Gamma = I / 0.01
print(f"precision matrix:\n{gamma.as_matrix()}")
for residual in [(0.0, 0.0), (0.1, 0.0), (0.3, 0.0)]:
    msq = mahalanobis_sq(residual, gamma)
    dens = edge_density(residual, (0.0, 0.0), Pose.identity(), gamma)
    print(f"residual {residual}: ||r||^2_Gamma = {msq:6.2f}, kernel = {dens:.4f}")
print("the kernel is 1 at zero residual and decays with the weighted distance;")
print("its flat normalization constant is dropped since responsibilities divide it out")
