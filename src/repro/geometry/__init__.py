"""Geometry substrate: vectors, rotations, SE(3).

Everything the Cyclops optical model needs is exact 3D geometry; there is
deliberately no rendering or approximation in this package.  A beam is
the paper's ``(p, x)`` pair as two float triples (:data:`Vec3`): its
originating point and its direction.  Every rigid placement -- a
headset pose, a tracking report, a GMA mount, a Section 4.2 mapping --
is one :class:`Pose`.
"""

from .rotation import (
    euler_to_matrix,
    is_rotation_matrix,
    matrix_to_euler,
    rotation_angle,
    rotation_between,
    rotation_matrix,
)
from .transform import Pose, speeds_between
from .vec import (
    Vec3,
    as_vec3,
    normalize,
)


class NoIntersectionError(ValueError):
    """Raised when a beam does not hit a plane (parallel or behind)."""


__all__ = [
    "NoIntersectionError",
    "Pose",
    "Vec3",
    "as_vec3",
    "euler_to_matrix",
    "is_rotation_matrix",
    "matrix_to_euler",
    "normalize",
    "rotation_angle",
    "rotation_between",
    "rotation_matrix",
    "speeds_between",
]
