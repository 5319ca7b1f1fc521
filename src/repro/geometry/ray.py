"""Rays: the representation of an optical beam's centerline.

The paper describes a beam as ``(p, x)`` -- an originating point and a
direction vector.  :class:`Ray` is that pair, with the handful of
geometric queries the TP algorithms need (point-along, distance to a
point, closest approach between two rays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vec import as_vec3, distance, dot, normalize


@dataclass(frozen=True)
class Ray:
    """A half-infinite line: ``origin + t * direction`` for ``t >= 0``.

    ``direction`` is normalized on construction, so ``t`` is metric
    distance along the beam.
    """

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", as_vec3(self.origin))
        object.__setattr__(self, "direction", normalize(self.direction))

    def point_at(self, t: float) -> np.ndarray:
        """Point a distance ``t`` along the ray from its origin."""
        return self.origin + float(t) * self.direction

    def distance_to_point(self, point) -> float:
        """Perpendicular distance from ``point`` to the ray's line."""
        p = as_vec3(point)
        offset = p - self.origin
        along = dot(offset, self.direction)
        closest = self.origin + along * self.direction
        return distance(p, closest)

    def closest_point_to(self, point) -> np.ndarray:
        """Point on the ray's line closest to ``point``."""
        p = as_vec3(point)
        along = dot(p - self.origin, self.direction)
        return self.point_at(along)

