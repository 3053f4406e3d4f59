"""Line-oriented point files: one ``x y`` pair per line, ``#`` comments.

Values are written with 17 significant digits, so a parse/serialize round
trip reproduces every float64 exactly.

``load_points`` reads a file in one bulk pass: the text is split at ``"\\n"``
only (text mode has already turned ``\\r\\n`` and ``\\r`` into ``"\\n"``, as
iterating the file would), each line at whitespace, and all tokens go through
one ``np.array(..., dtype=float)``, whose str-to-float cast is Python's
``float``.  ``str.splitlines`` is not used: it also breaks lines at
``\\x0b \\x0c \\x1c-\\x1e \\x85 \\u2028 \\u2029``, which file iteration does not.
Only a file the bulk pass rejects is walked line by line, to name the
offending line.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import as_point_array

__all__ = ["load_points", "save_points"]


def load_points(path) -> np.ndarray:
    """Parse a point file into an ``(n, 2)`` array.

    Blank lines and lines starting with ``#`` are skipped.  Anything else
    must be two whitespace-separated finite floats; violations raise
    ValueError with the offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # A line's first token starts where its stripped text does.
    rows = [parts for parts in map(str.split, lines) if parts and parts[0][0] != "#"]
    if set(map(len, rows)) <= {2}:
        try:
            arr = np.array(list(itertools.chain.from_iterable(rows)), dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(arr).all():
                return arr.reshape(-1, 2)
    return _parse_lines(path, lines)


def _parse_lines(path, lines) -> np.ndarray:
    """The line-by-line parse: raises for the first bad line, as the bulk
    pass in ``load_points`` cannot say which line it rejected."""
    pts = []
    first_non_finite = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'x y', got {line!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number pair: {line!r}") from None
        if first_non_finite is None and not (math.isfinite(x) and math.isfinite(y)):
            first_non_finite = f"{path}:{lineno}: non-finite coordinates: {line!r}"
        pts.append((x, y))
    if first_non_finite is not None:
        raise ValueError(first_non_finite)
    return np.array(pts, dtype=float).reshape(-1, 2)


def save_points(path, points, header: str | None = None) -> None:
    np.savetxt(path, as_point_array(points), fmt="%.17g", header=header or "",
               comments="# ", encoding="utf-8")
