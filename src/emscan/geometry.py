"""Rigid 2D transforms, point coercion, and the Mahalanobis form.

Conventions used throughout the library:

* A pose ``y = (tx, ty, theta)`` acts on a point ``p`` as
  ``Rot(theta) @ p + (tx, ty)`` and maps model coordinates into the scan
  frame.  Angles are radians, stored wrapped to ``(-pi, pi]``.
* Point sets are float64 arrays of shape ``(n, 2)`` in meters.

All types are immutable values and all operations are pure functions, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Pose",
    "PrecisionMatrix",
    "as_point_array",
    "mahalanobis_sq",
    "wrap_angle",
]


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians to the interval ``(-pi, pi]``."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def as_point_array(points) -> np.ndarray:
    """Coerce a point collection to a float64 array of shape ``(n, 2)``.

    Accepts ``(n, 2)`` array-likes as well as sequences of :class:`Point`
    or 2-tuples.  The data is copied, and NaN or infinite coordinates are
    rejected.
    """
    try:
        arr = np.array(points, dtype=float)
    except (TypeError, ValueError):
        arr = np.array([tuple(p) for p in points], dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


def _as_xy(p) -> np.ndarray:
    """A single point as a float64 vector of shape ``(2,)``."""
    arr = np.asarray(tuple(p) if isinstance(p, Point) else p, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"expected a single 2D point, got shape {arr.shape}")
    return arr


def _within_radius(dx: np.ndarray, dy: np.ndarray, radius: float) -> np.ndarray:
    """``dx**2 + dy**2 < radius**2`` over difference columns ``dx`` and ``dy``,
    for any finite radius.  Overwrites both columns: fresh arrays of the
    grid's candidate count cost page faults.

    The differences and the radius are scaled by the power of two that puts
    the radius in ``[0.5, 1)`` before squaring, so ``radius**2`` neither
    overflows nor underflows.  The scale is exact: wherever the unscaled
    squares stay finite and normal, the answer is the unscaled test's.
    Scaling the coordinates before subtracting them could overflow, so
    callers pass differences.  The grid's query and the oracles both test
    with this function, so they round identically.
    """
    exponent = math.frexp(radius)[1]
    r = math.ldexp(radius, -exponent)
    with np.errstate(over="ignore"):    # far-apart points go to inf and fail
        np.ldexp(dx, -exponent, out=dx)
        np.ldexp(dy, -exponent, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
    return dx < r * r


@dataclass(frozen=True)
class Point:
    """A 2D position in meters.  Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class Pose:
    """Rigid transform parameters ``(tx, ty, theta)``.

    ``theta`` is normalized to ``(-pi, pi]`` at construction.  The action
    on a point is rotate by ``theta``, then translate by ``(tx, ty)``.
    """

    tx: float
    ty: float
    theta: float

    def __post_init__(self) -> None:
        tx, ty, theta = float(self.tx), float(self.ty), float(self.theta)
        if not (math.isfinite(tx) and math.isfinite(ty) and math.isfinite(theta)):
            raise ValueError(f"pose components must be finite, got ({tx}, {ty}, {theta})")
        object.__setattr__(self, "tx", tx)
        object.__setattr__(self, "ty", ty)
        object.__setattr__(self, "theta", wrap_angle(theta))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, arr) -> "Pose":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3,):
            raise ValueError(f"expected 3 pose components, got shape {arr.shape}")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    def to_array(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.theta])

    def rotation(self) -> np.ndarray:
        """The 2x2 rotation matrix of ``theta``."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def apply(self, points):
        """Rotate then translate.

        Accepts a single :class:`Point` (returning a :class:`Point`), one
        ``(2,)`` vector, or an ``(n, 2)`` array (returning arrays).  Every
        form computes ``(c x - s y + tx, s x + c y + ty)`` in that order, as
        the residual covariance does, so ``s - pose(m)`` is exactly zero
        wherever ``s`` was made as ``pose.apply(m)``.
        """
        c, s = math.cos(self.theta), math.sin(self.theta)
        if isinstance(points, Point):
            return Point(c * points.x - s * points.y + self.tx,
                         s * points.x + c * points.y + self.ty)
        arr = np.asarray(points, dtype=float)
        if arr.shape[-1:] != (2,):
            raise ValueError(f"expected points with 2 coordinates, got shape {arr.shape}")
        x, y = arr[..., 0], arr[..., 1]
        return np.stack((c * x - s * y + self.tx, s * x + c * y + self.ty), axis=-1)

    def compose(self, other: "Pose") -> "Pose":
        """The pose that applies ``other`` first and then ``self``."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose(self.tx + c * other.tx - s * other.ty,
                    self.ty + s * other.tx + c * other.ty,
                    self.theta + other.theta)

    def inverse(self) -> "Pose":
        """The pose ``g`` with ``g.compose(self)`` equal to the identity."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose(-(c * self.tx + s * self.ty),
                    -(-s * self.tx + c * self.ty),
                    -self.theta)


@dataclass(frozen=True)
class PrecisionMatrix:
    """Symmetric positive definite 2x2 precision matrix, units 1/m^2.

    Stored as the three entries ``(g00, g01, g11)`` so symmetry holds by
    construction; positive definiteness and a finite determinant are
    checked at construction.  This is the inverse covariance of the
    Gaussian measurement noise model.
    """

    g00: float
    g01: float
    g11: float

    def __post_init__(self) -> None:
        g00, g01, g11 = float(self.g00), float(self.g01), float(self.g11)
        if not (math.isfinite(g00) and math.isfinite(g01) and math.isfinite(g11)):
            raise ValueError("precision matrix entries must be finite")
        object.__setattr__(self, "g00", g00)
        object.__setattr__(self, "g01", g01)
        object.__setattr__(self, "g11", g11)
        if not (g00 > 0.0 and 0.0 < self.det < math.inf):
            raise ValueError(f"precision matrix [[{g00}, {g01}], [{g01}, {g11}]] is not "
                             "positive definite with a finite determinant")

    @classmethod
    def identity(cls) -> "PrecisionMatrix":
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def isotropic(cls, sigma: float) -> "PrecisionMatrix":
        """Precision ``I / sigma^2`` for isotropic noise of std ``sigma``."""
        var = sigma * sigma
        g = 1.0 / var if var > 0.0 else math.inf
        if not (sigma > 0.0 and 0.0 < g < math.inf):
            raise ValueError(f"sigma must be > 0 with 1/sigma^2 finite and > 0, got {sigma}")
        return cls(g, 0.0, g)

    @classmethod
    def from_matrix(cls, mat) -> "PrecisionMatrix":
        arr = np.asarray(mat, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.abs(arr).max()))
        if abs(arr[0, 1] - arr[1, 0]) > 1e-9 * scale:
            raise ValueError("matrix is not symmetric")
        return cls(arr[0, 0], 0.5 * (arr[0, 1] + arr[1, 0]), arr[1, 1])

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.g00, self.g01], [self.g01, self.g11]])

    @property
    def det(self) -> float:
        return self.g00 * self.g11 - self.g01 * self.g01

    @property
    def is_isotropic(self) -> bool:
        return self.g01 == 0.0 and self.g00 == self.g11

    def eigenvalues(self) -> tuple[float, float]:
        """Both eigenvalues, ascending; the smaller as ``det / larger``, free of cancellation."""
        mean = 0.5 * (self.g00 + self.g11)
        spread = math.hypot(0.5 * (self.g00 - self.g11), self.g01)
        if spread == 0.0:
            return (mean, mean)
        larger = mean + spread
        return (min(self.det / larger, larger), larger)     # det / larger may round above

    def max_noise_sigma(self) -> float:
        """Largest per-axis noise std implied by this precision."""
        return 1.0 / math.sqrt(self.eigenvalues()[0])


def mahalanobis_sq(v, gamma: PrecisionMatrix):
    """Quadratic form ``v^T Gamma v``.

    ``v`` may be one 2-vector or an ``(n, 2)`` array; the result is a float
    or an ``(n,)`` array.  Always >= 0, and zero exactly when ``v`` is zero.
    """
    arr = np.asarray(v, dtype=float)
    vx, vy = arr[..., 0], arr[..., 1]
    out = gamma.g00 * vx * vx + 2.0 * gamma.g01 * vx * vy + gamma.g11 * vy * vy
    return float(out) if out.ndim == 0 else out

