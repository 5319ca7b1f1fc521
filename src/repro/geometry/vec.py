"""Small 3-vector helpers used throughout the geometry substrate.

All geometry code represents points and directions as ``numpy`` arrays of
shape ``(3,)`` with ``float64`` dtype.  These helpers centralize the
validation and the handful of operations numpy does not spell nicely.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: A point or direction as a plain float triple, for the hot paths
#: (``G``, the channel) that skip numpy's per-call overhead.
Vec3 = Tuple[float, float, float]

#: Tolerance under which a vector is considered degenerate (zero length).
DEGENERATE_NORM = 1e-12


def as_vec3(value) -> np.ndarray:
    """Coerce ``value`` into a float64 array of shape ``(3,)``.

    Raises ``ValueError`` for anything that is not a 3-element sequence.
    """
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def norm(v) -> float:
    """Euclidean length of a 3-vector."""
    return float(np.linalg.norm(as_vec3(v)))


def normalize(v) -> np.ndarray:
    """Return ``v`` scaled to unit length.

    Raises ``ValueError`` if ``v`` is (numerically) the zero vector, since
    a direction cannot be recovered from it.
    """
    arr = as_vec3(v)
    length = float(np.linalg.norm(arr))
    if length < DEGENERATE_NORM:
        raise ValueError("cannot normalize a zero-length vector")
    return arr / length


def distance(a, b) -> float:
    """Euclidean distance between two points."""
    return float(np.linalg.norm(as_vec3(a) - as_vec3(b)))


def dot(a, b) -> float:
    """Dot product as a plain float."""
    return float(np.dot(as_vec3(a), as_vec3(b)))


def cross(a, b) -> np.ndarray:
    """Cross product of two 3-vectors."""
    return np.cross(as_vec3(a), as_vec3(b))

