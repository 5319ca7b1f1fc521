"""3-vector types and the two helpers the geometry substrate shares.

Parameters and poses hold points and directions as ``numpy`` arrays of
shape ``(3,)`` with ``float64`` dtype; beams are plain float triples
(:data:`Vec3`).  :func:`as_vec3` validates the arrays and
:func:`normalize` makes unit directions of them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: A point or direction as a plain float triple.  A beam is a pair of
#: them, ``(origin, direction)``: the hot paths (``G``, ``G'``, the
#: channel) skip numpy's per-call overhead on 3-vectors.
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
