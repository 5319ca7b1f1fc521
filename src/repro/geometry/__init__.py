"""Geometry substrate: vectors, rotations, rays, planes, SE(3).

Everything the Cyclops optical model needs is exact 3D geometry; there is
deliberately no rendering or approximation in this package.
"""

from .plane import NoIntersectionError, Plane
from .ray import Ray
from .rotation import (
    euler_to_matrix,
    is_rotation_matrix,
    matrix_to_euler,
    rotation_angle,
    rotation_between,
    rotation_matrix,
)
from .transform import RigidTransform, apply_ray_floats
from .vec import (
    Vec3,
    as_vec3,
    cross,
    distance,
    dot,
    norm,
    normalize,
)

__all__ = [
    "NoIntersectionError",
    "Plane",
    "Ray",
    "RigidTransform",
    "Vec3",
    "apply_ray_floats",
    "as_vec3",
    "cross",
    "distance",
    "dot",
    "euler_to_matrix",
    "is_rotation_matrix",
    "matrix_to_euler",
    "norm",
    "normalize",
    "rotation_angle",
    "rotation_between",
    "rotation_matrix",
]
