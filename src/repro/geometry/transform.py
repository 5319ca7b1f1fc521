"""Rigid transforms (SE(3)) with a 6-parameter encoding.

Section 4.2 learns the K-space -> VR-space mapping for each GMA as six
parameters (a rigid transform per Corke's robotics text).  We encode a
transform as ``(tx, ty, tz, roll, pitch, yaw)`` so the 12 mapping
parameters of the joint fit are simply the concatenation of two of these
vectors, which a least-squares solver optimizes directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .rotation import euler_to_matrix, is_rotation_matrix, matrix_to_euler
from .vec import Vec3, as_vec3


@dataclass(frozen=True)
class RigidTransform:
    """A rotation followed by a translation: ``x -> R x + t``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if not is_rotation_matrix(r, tol=1e-6):
            raise ValueError("rotation must be a proper rotation matrix")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", as_vec3(self.translation))

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> "RigidTransform":
        """The do-nothing transform."""
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_params(cls, params) -> "RigidTransform":
        """Build from the 6-vector ``(tx, ty, tz, roll, pitch, yaw)``."""
        arr = np.asarray(params, dtype=float)
        if arr.shape != (6,):
            raise ValueError(f"expected 6 parameters, got shape {arr.shape}")
        rotation = euler_to_matrix(arr[3], arr[4], arr[5])
        return cls(rotation, arr[:3])

    def to_params(self) -> np.ndarray:
        """Inverse of :meth:`from_params`."""
        roll, pitch, yaw = matrix_to_euler(self.rotation)
        return np.concatenate([self.translation, [roll, pitch, yaw]])

    # -- application -------------------------------------------------------

    def apply_point(self, point) -> np.ndarray:
        """Transform a point (rotation and translation)."""
        return self.rotation @ as_vec3(point) + self.translation

    def apply_direction(self, direction) -> np.ndarray:
        """Transform a direction (rotation only)."""
        return self.rotation @ as_vec3(direction)

    def apply_ray(self, origin: Vec3,
                  direction: Vec3) -> Tuple[Vec3, Vec3]:
        """Transform a beam: move its origin, rotate its direction."""
        return _move_ray(self.rotation, self.translation, origin, direction)

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """``self after other``: apply ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        """The transform undoing this one."""
        r_inv = self.rotation.T
        return RigidTransform(r_inv, -(r_inv @ self.translation))

    def almost_equal(self, other: "RigidTransform",
                     tol: float = 1e-9) -> bool:
        """True when both transforms agree within ``tol``."""
        return (np.allclose(self.rotation, other.rotation, atol=tol)
                and np.allclose(self.translation, other.translation,
                                atol=tol))


def _move_ray(rotation: np.ndarray, translation: np.ndarray, origin: Vec3,
              direction: Vec3) -> Tuple[Vec3, Vec3]:
    """``x -> R x + t`` on a float beam: move the origin, rotate the
    direction.

    The body of :meth:`RigidTransform.apply_ray` and
    :meth:`repro.vrh.Pose.apply_ray`.  ``rotation`` and ``translation``
    are taken as already validated, so a pose's placement needs no
    :class:`RigidTransform` built (and checked) per beam.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation.tolist()
    tx, ty, tz = translation.tolist()
    ox, oy, oz = origin
    dx, dy, dz = direction
    return ((r00 * ox + r01 * oy + r02 * oz + tx,
             r10 * ox + r11 * oy + r12 * oz + ty,
             r20 * ox + r21 * oy + r22 * oz + tz),
            (r00 * dx + r01 * dy + r02 * dz,
             r10 * dx + r11 * dy + r12 * dz,
             r20 * dx + r21 * dy + r22 * dz))
