"""Geometry substrate: vectors, rotations, SE(3).

Everything the Cyclops optical model needs is exact 3D geometry; there is
deliberately no rendering or approximation in this package.  A beam is
the paper's ``(p, x)`` pair as two float triples (:data:`Vec3`): its
originating point and its direction.
"""

from .rotation import (
    euler_to_matrix,
    is_rotation_matrix,
    matrix_to_euler,
    rotation_angle,
    rotation_between,
    rotation_matrix,
)
from .transform import RigidTransform
from .vec import (
    Vec3,
    as_vec3,
    normalize,
)


class NoIntersectionError(ValueError):
    """Raised when a beam does not hit a plane (parallel or behind)."""


__all__ = [
    "NoIntersectionError",
    "RigidTransform",
    "Vec3",
    "as_vec3",
    "euler_to_matrix",
    "is_rotation_matrix",
    "matrix_to_euler",
    "normalize",
    "rotation_angle",
    "rotation_between",
    "rotation_matrix",
]
