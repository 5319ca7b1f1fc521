"""Rigid placements (SE(3)): one :class:`Pose` for every rigid frame.

The paper's "position" of the headset means both location (x, y, z)
and orientation (three angles); Section 4.2 learns the K-space ->
VR-space mapping for each GMA as a rigid transform of six parameters
(per Corke's robotics text, which calls it a *pose*).  Both are the
same object here.  A pose encodes as ``(tx, ty, tz, roll, pitch, yaw)``
so the 12 mapping parameters of the joint fit are simply the
concatenation of two of these vectors, which a least-squares solver
optimizes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .rotation import (
    euler_to_matrix,
    is_rotation_matrix,
    matrix_to_euler,
    rotation_angle,
)
from .vec import Vec3, as_vec3


@dataclass(frozen=True)
class Pose:
    """Placement of a body frame: ``reference_point = R body_point + t``
    with ``R = orientation`` and ``t = position``."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        # Private read-only copies: a pose checked here stays as checked,
        # whatever later happens to the caller's arrays.
        position = as_vec3(self.position).copy()
        if not all(map(math.isfinite, position.tolist())):
            raise ValueError(f"position must be finite, got {position}")
        m = np.array(self.orientation, dtype=float)
        if not is_rotation_matrix(m, tol=1e-6):
            raise ValueError("orientation must be a rotation matrix")
        position.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "orientation", m)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls) -> "Pose":
        """Body frame coincides with the reference frame."""
        return cls(np.zeros(3), np.eye(3))

    @classmethod
    def from_params(cls, params) -> "Pose":
        """Build from the 6-vector ``(tx, ty, tz, roll, pitch, yaw)``."""
        arr = np.asarray(params, dtype=float)
        if arr.shape != (6,):
            raise ValueError(f"expected 6 parameters, got shape {arr.shape}")
        return cls(arr[:3], euler_to_matrix(arr[3], arr[4], arr[5]))

    def to_params(self) -> np.ndarray:
        """Inverse of :meth:`from_params`."""
        roll, pitch, yaw = matrix_to_euler(self.orientation)
        return np.concatenate([self.position, [roll, pitch, yaw]])

    # -- application ---------------------------------------------------------

    def apply_point(self, point) -> np.ndarray:
        """A body-frame point in the reference frame."""
        return self.orientation @ as_vec3(point) + self.position

    def apply_direction(self, direction) -> np.ndarray:
        """A body-frame direction in the reference frame (rotation only)."""
        return self.orientation @ as_vec3(direction)

    def apply_ray(self, origin: Vec3,
                  direction: Vec3) -> Tuple[Vec3, Vec3]:
        """A body-frame float beam in the reference frame: move its
        origin, rotate its direction."""
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = \
            self.orientation.tolist()
        tx, ty, tz = self.position.tolist()
        ox, oy, oz = origin
        dx, dy, dz = direction
        return ((r00 * ox + r01 * oy + r02 * oz + tx,
                 r10 * ox + r11 * oy + r12 * oz + ty,
                 r20 * ox + r21 * oy + r22 * oz + tz),
                (r00 * dx + r01 * dy + r02 * dz,
                 r10 * dx + r11 * dy + r12 * dz,
                 r20 * dx + r21 * dy + r22 * dz))

    # -- algebra -------------------------------------------------------------

    def compose(self, other: "Pose") -> "Pose":
        """``self after other``: apply ``other`` first, then ``self``."""
        return Pose(self.orientation @ other.position + self.position,
                    self.orientation @ other.orientation)

    def inverse(self) -> "Pose":
        """The pose undoing this one."""
        r_inv = self.orientation.T
        return Pose(-(r_inv @ self.position), r_inv)

    def almost_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        """True when both poses agree within ``tol``."""
        return (np.allclose(self.position, other.position, atol=tol)
                and np.allclose(self.orientation, other.orientation,
                                atol=tol))

    # -- motion arithmetic ---------------------------------------------------

    def linear_distance_to(self, other: "Pose") -> float:
        """Meters of translation between two poses."""
        return float(np.linalg.norm(self.position - other.position))

    def angular_distance_to(self, other: "Pose") -> float:
        """Radians of rotation between two poses (geodesic)."""
        relative = other.orientation @ self.orientation.T
        return rotation_angle(relative)


def speeds_between(earlier: Pose, later: Pose, dt_s: float) -> tuple:
    """(linear m/s, angular rad/s) speeds implied by two timed poses."""
    if not (math.isfinite(dt_s) and dt_s > 0):
        raise ValueError(f"time delta must be positive and finite, "
                         f"got {dt_s}")
    return (earlier.linear_distance_to(later) / dt_s,
            earlier.angular_distance_to(later) / dt_s)
