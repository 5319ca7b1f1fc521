"""Planes and ray-plane intersection.

Mirror surfaces, the K-space calibration board, and the ``G'`` iteration's
projection plane ``P`` (Section 4.3) are all planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ray import Ray
from .vec import as_vec3, dot, normalize


class NoIntersectionError(ValueError):
    """Raised when a ray does not hit a plane (parallel or behind)."""


@dataclass(frozen=True)
class Plane:
    """A plane through ``point`` with unit ``normal``."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_vec3(self.point))
        object.__setattr__(self, "normal", normalize(self.normal))

    def signed_distance(self, point) -> float:
        """Signed distance of ``point`` from the plane (+ on normal side)."""
        return dot(as_vec3(point) - self.point, self.normal)

    def intersect_ray(self, ray: Ray, forward_only: bool = True) -> np.ndarray:
        """Intersection point of ``ray`` with the plane.

        Raises :class:`NoIntersectionError` when the ray is parallel to
        the plane, or (with ``forward_only``) when the intersection lies
        behind the ray's origin -- a beam cannot hit a mirror backwards.
        """
        denom = dot(ray.direction, self.normal)
        if abs(denom) < 1e-12:
            raise NoIntersectionError("ray is parallel to the plane")
        t = -self.signed_distance(ray.origin) / denom
        if forward_only and t < -1e-12:
            raise NoIntersectionError("intersection is behind the ray origin")
        return ray.point_at(t)

    def intersection_distance(self, ray: Ray) -> float:
        """Distance along ``ray`` to its intersection with the plane."""
        denom = dot(ray.direction, self.normal)
        if abs(denom) < 1e-12:
            raise NoIntersectionError("ray is parallel to the plane")
        return -self.signed_distance(ray.origin) / denom
