"""Headset pose: location plus orientation, with motion arithmetic.

The paper's "position" means both location (x, y, z) and orientation
(three angles).  A :class:`Pose` is the rigid placement of the headset
body frame in some reference frame (world or VR-space); it is a thin
semantic wrapper over :class:`repro.geometry.RigidTransform` with the
motion-specific operations the simulators need: linear/angular deltas
and speeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..geometry import (
    RigidTransform,
    Vec3,
    as_vec3,
    euler_to_matrix,
    is_rotation_matrix,
    rotation_angle,
)
from ..geometry.transform import _move_ray


@dataclass(frozen=True)
class Pose:
    """Placement of a body frame: ``world_point = R body_point + t``."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        m = np.asarray(self.orientation, dtype=float)
        if not is_rotation_matrix(m, tol=1e-6):
            raise ValueError("orientation must be a rotation matrix")
        object.__setattr__(self, "orientation", m)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls) -> "Pose":
        """Body frame coincides with the reference frame."""
        return cls(np.zeros(3), np.eye(3))

    @classmethod
    def from_euler(cls, position, roll: float, pitch: float,
                   yaw: float) -> "Pose":
        """Build from a location and intrinsic XYZ Euler angles."""
        return cls(position, euler_to_matrix(roll, pitch, yaw))

    def as_transform(self) -> RigidTransform:
        """The body-to-reference rigid transform."""
        return RigidTransform(self.orientation, self.position)

    def apply_ray(self, origin: Vec3,
                  direction: Vec3) -> Tuple[Vec3, Vec3]:
        """A body-frame beam in the reference frame: the same map as
        ``as_transform().apply_ray``, with no transform built."""
        return _move_ray(self.orientation, self.position, origin, direction)

    # -- motion arithmetic ---------------------------------------------------

    def linear_distance_to(self, other: "Pose") -> float:
        """Meters of translation between two poses."""
        return float(np.linalg.norm(self.position - other.position))

    def angular_distance_to(self, other: "Pose") -> float:
        """Radians of rotation between two poses (geodesic)."""
        relative = other.orientation @ self.orientation.T
        return rotation_angle(relative)

    def moved(self, translation=None, rotation=None) -> "Pose":
        """A copy displaced by a world-frame translation and/or rotation."""
        position = self.position
        orientation = self.orientation
        if translation is not None:
            position = position + as_vec3(translation)
        if rotation is not None:
            orientation = np.asarray(rotation, dtype=float) @ orientation
        return Pose(position, orientation)

    def almost_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        """True when both poses agree within ``tol``."""
        return (np.allclose(self.position, other.position, atol=tol)
                and np.allclose(self.orientation, other.orientation,
                                atol=tol))


def speeds_between(earlier: Pose, later: Pose, dt_s: float) -> tuple:
    """(linear m/s, angular rad/s) speeds implied by two timed poses."""
    if dt_s <= 0:
        raise ValueError("time delta must be positive")
    return (earlier.linear_distance_to(later) / dt_s,
            earlier.angular_distance_to(later) / dt_s)
