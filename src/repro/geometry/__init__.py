"""Geometry substrate: vectors, rotations, rays, planes, mirrors, SE(3).

Everything the Cyclops optical model needs is exact 3D geometry; there is
deliberately no rendering or approximation in this package.
"""

from .plane import NoIntersectionError, Plane
from .ray import Ray, closest_approach, skew_gap
from .reflection import reflect_beam, reflect_direction, reflect_ray
from .rotation import (
    euler_to_matrix,
    is_rotation_matrix,
    matrix_to_axis_angle,
    matrix_to_euler,
    rotate,
    rotation_angle,
    rotation_between,
    rotation_matrix,
)
from .transform import RigidTransform, apply_ray_floats
from .vec import (
    Vec3,
    angle_between,
    as_vec3,
    cross,
    distance,
    dot,
    is_unit,
    norm,
    normalize,
    perpendicular_to,
)

__all__ = [
    "NoIntersectionError",
    "Plane",
    "Ray",
    "RigidTransform",
    "Vec3",
    "angle_between",
    "apply_ray_floats",
    "as_vec3",
    "closest_approach",
    "cross",
    "distance",
    "dot",
    "euler_to_matrix",
    "is_rotation_matrix",
    "is_unit",
    "matrix_to_axis_angle",
    "matrix_to_euler",
    "norm",
    "normalize",
    "perpendicular_to",
    "reflect_beam",
    "reflect_direction",
    "reflect_ray",
    "rotate",
    "rotation_angle",
    "rotation_between",
    "rotation_matrix",
    "skew_gap",
]
