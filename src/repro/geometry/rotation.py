"""Rotations: Rodrigues axis-angle matrices and Euler-angle conversions.

The GMA model (Section 4.1) rotates mirror normals about fixed rotation
axes by voltage-proportional angles; ``rotation_matrix`` implements the
``R(r, theta)`` operator the paper uses.  Euler angles (roll/pitch/yaw,
intrinsic XYZ) represent headset orientation in ``repro.vrh.pose``.
"""

from __future__ import annotations

import numpy as np

from .vec import as_vec3, normalize


def rotation_matrix(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix rotating by ``angle_rad`` about ``axis``.

    ``axis`` need not be unit length; it is normalized here.  Matches the
    paper's ``R(r, theta)`` operator used to re-orient mirror normals.
    """
    u = normalize(axis)
    cos = float(np.cos(angle_rad))
    sin = float(np.sin(angle_rad))
    ux, uy, uz = u
    cross = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return cos * np.eye(3) + sin * cross + (1.0 - cos) * np.outer(u, u)


def rotate(axis, angle_rad: float, v) -> np.ndarray:
    """Rotate vector ``v`` by ``angle_rad`` about ``axis``."""
    return rotation_matrix(axis, angle_rad) @ as_vec3(v)


def euler_to_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from intrinsic XYZ (roll, pitch, yaw) Euler angles.

    Convention: ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``, i.e. roll about x
    first, then pitch about y, then yaw about z, all in radians.
    """
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]], dtype=float)
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]], dtype=float)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]], dtype=float)
    return rz @ ry @ rx


def matrix_to_euler(matrix: np.ndarray) -> tuple:
    """Inverse of :func:`euler_to_matrix`; returns ``(roll, pitch, yaw)``.

    Uses the standard ZYX extraction.  At gimbal lock (``|pitch| = pi/2``)
    the split between roll and yaw is not unique; roll is set to zero.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    sp = float(np.clip(-m[2, 0], -1.0, 1.0))
    pitch = float(np.arcsin(sp))
    if abs(sp) < 1.0 - 1e-10:
        roll = float(np.arctan2(m[2, 1], m[2, 2]))
        yaw = float(np.arctan2(m[1, 0], m[0, 0]))
    else:
        roll = 0.0
        yaw = float(np.arctan2(-m[0, 1], m[1, 1]))
    return roll, pitch, yaw


def rotation_angle(matrix: np.ndarray) -> float:
    """Rotation angle (radians) of a rotation matrix, in ``[0, pi]``.

    This is the geodesic distance from the identity -- used to quantify
    angular motion between two headset orientations.
    """
    m = np.asarray(matrix, dtype=float)
    cosine = float(np.clip((np.trace(m) - 1.0) / 2.0, -1.0, 1.0))
    return float(np.arccos(cosine))


def rotation_between(from_dir, to_dir) -> np.ndarray:
    """The smallest rotation matrix taking one direction onto another.

    Used when mounting a GMA so its rest beam points at a chosen
    target.  For anti-parallel inputs an arbitrary perpendicular axis
    is used (the 180-degree rotation is not unique).
    """
    a = normalize(from_dir)
    b = normalize(to_dir)
    cosine = float(np.clip(np.dot(a, b), -1.0, 1.0))
    axis = np.cross(a, b)
    norm = float(np.linalg.norm(axis))
    if norm < 1e-12:
        if cosine > 0:
            return np.eye(3)
        # Anti-parallel: rotate pi about any axis perpendicular to a.
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(a)))] = 1.0
        axis = np.cross(a, helper)
        return rotation_matrix(axis, np.pi)
    return rotation_matrix(axis / norm, float(np.arctan2(norm, cosine)))


def matrix_to_axis_angle(matrix: np.ndarray) -> tuple:
    """Decompose a rotation matrix into ``(axis, angle)``.

    ``angle`` is in ``[0, pi]``.  For the identity (angle 0) the axis is
    arbitrary and +z is returned.  Used for interpolating headset
    orientations along motion traces.
    """
    m = np.asarray(matrix, dtype=float)
    angle = rotation_angle(m)
    if angle < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    if abs(angle - np.pi) < 1e-6:
        # Near pi the antisymmetric part vanishes; use the symmetric part.
        b = (m + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(b), 0.0))
        # Fix signs from the off-diagonal terms, anchored on the largest
        # component (which is safely non-zero).
        k = int(np.argmax(axis))
        for i in range(3):
            if i != k and b[k, i] < 0:
                axis[i] = -axis[i]
        axis = axis / np.linalg.norm(axis)
        return axis, angle
    axis = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0],
                     m[1, 0] - m[0, 1]])
    axis = axis / (2.0 * np.sin(angle))
    return normalize(axis), angle


def is_rotation_matrix(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """True when ``matrix`` is orthonormal with determinant +1.

    Every entry of ``M @ M.T - I`` and ``det(M) - 1`` must lie within
    ``tol`` (absolute, no relative slack on the diagonal).  Runs on
    plain floats: every :class:`RigidTransform` and ``Pose`` checks its
    rotation on construction.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        return False
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    deviations = (a * a + b * b + c * c - 1.0,
                  d * d + e * e + f * f - 1.0,
                  g * g + h * h + i * i - 1.0,
                  a * d + b * e + c * f,
                  a * g + b * h + c * i,
                  d * g + e * h + f * i,
                  a * (e * i - f * h) - b * (d * i - f * g)
                  + c * (d * h - e * g) - 1.0)
    # ``<=`` is False for NaN, so a NaN entry fails the check.
    return all(abs(x) <= tol for x in deviations)
