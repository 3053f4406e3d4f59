"""Line-oriented point files: one ``x y`` pair per line, ``#`` comments.

Values are written with 17 significant digits, so a parse/serialize round
trip reproduces every float64 exactly.
"""

from __future__ import annotations

import numpy as np

from .geometry import as_point_array

__all__ = ["load_points", "save_points"]


def load_points(path) -> np.ndarray:
    """Parse a point file into an ``(n, 2)`` array.

    Blank lines and lines starting with ``#`` are skipped.  Anything else
    must be two whitespace-separated floats; violations raise ValueError
    with the offending line number.
    """
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x y', got {line!r}")
            try:
                pts.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number pair: {line!r}") from None
    if not pts:
        return np.empty((0, 2))
    arr = np.array(pts, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite coordinates")
    return arr


def save_points(path, points, header: str | None = None) -> None:
    np.savetxt(path, as_point_array(points), fmt="%.17g", header=header or "",
               comments="# ", encoding="utf-8")
