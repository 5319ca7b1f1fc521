"""The GMA parameter set and its exact two-mirror forward trace.

Section 4.1 parameterizes a GM assembly (GMA) by:

* input beam: originating point ``p0`` and direction ``x0``;
* first mirror: rest normal ``n1``, pivot ``q1`` (a point on both the
  mirror plane and its rotation axis), rotation axis ``r1``;
* second mirror: ``n2``, ``q2``, ``r2``;
* voltage-to-angle scale ``theta1`` (radians of mirror rotation per
  volt), assumed identical for both mirrors.

:func:`trace` is the paper's closed-form expression for
``G(v1, v2) = (p, x)``: rotate each normal by ``R(r_i, theta1 * v_i)``
and chain two reflections.  Both the simulated "real" hardware
(:mod:`repro.galvo.galvo`) and the learned model
(:mod:`repro.core.gma`) evaluate this same function -- the hardware adds
hidden imperfections on top.

The trace runs on plain Python floats: numpy's per-call overhead on
3-vectors is most of the cost of ``G``, and ``G`` runs inside every
calibration and pointing loop.  Only the returned :class:`Ray` (and
:class:`Plane`) are numpy-backed; :func:`trace_floats` hands the float
beam itself to callers that stay on floats (the channel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..geometry import (
    NoIntersectionError,
    Plane,
    Ray,
    RigidTransform,
    Vec3,
    as_vec3,
    normalize,
)


@dataclass(frozen=True)
class GmaParams:
    """The 9 quantities (25 scalars) defining a GMA's optical layout."""

    p0: np.ndarray
    x0: np.ndarray
    n1: np.ndarray
    q1: np.ndarray
    r1: np.ndarray
    n2: np.ndarray
    q2: np.ndarray
    r2: np.ndarray
    theta1: float
    #: The 8 vectors as float triples, in ``to_vector`` order, for the
    #: float trace (the arrays are never mutated in place).
    _floats: Tuple[Vec3, ...] = field(init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p0", as_vec3(self.p0))
        object.__setattr__(self, "x0", normalize(self.x0))
        object.__setattr__(self, "n1", normalize(self.n1))
        object.__setattr__(self, "q1", as_vec3(self.q1))
        object.__setattr__(self, "r1", normalize(self.r1))
        object.__setattr__(self, "n2", normalize(self.n2))
        object.__setattr__(self, "q2", as_vec3(self.q2))
        object.__setattr__(self, "r2", normalize(self.r2))
        if self.theta1 <= 0:
            raise ValueError("theta1 must be positive")
        object.__setattr__(self, "_floats", tuple(
            tuple(vector.tolist()) for vector in (
                self.p0, self.x0, self.n1, self.q1, self.r1,
                self.n2, self.q2, self.r2)))

    # -- flat encodings for the least-squares fits --------------------------

    def to_vector(self) -> np.ndarray:
        """Flatten to a 25-vector in a fixed order (for optimizers)."""
        return np.concatenate([
            self.p0, self.x0, self.n1, self.q1, self.r1,
            self.n2, self.q2, self.r2, [self.theta1],
        ])

    @classmethod
    def from_vector(cls, vector) -> "GmaParams":
        """Inverse of :meth:`to_vector` (directions re-normalized)."""
        v = np.asarray(vector, dtype=float)
        if v.shape != (25,):
            raise ValueError(f"expected 25 parameters, got shape {v.shape}")
        return cls(p0=v[0:3], x0=v[3:6], n1=v[6:9], q1=v[9:12], r1=v[12:15],
                   n2=v[15:18], q2=v[18:21], r2=v[21:24],
                   theta1=float(v[24]))

    def transformed(self, transform: RigidTransform) -> "GmaParams":
        """Express the same physical GMA in another coordinate frame.

        Points transform fully; directions/normals/axes rotate only.
        This is exactly how the Section 4.2 mapping parameters act on a
        K-space model to produce a VR-space model.
        """
        return GmaParams(
            p0=transform.apply_point(self.p0),
            x0=transform.apply_direction(self.x0),
            n1=transform.apply_direction(self.n1),
            q1=transform.apply_point(self.q1),
            r1=transform.apply_direction(self.r1),
            n2=transform.apply_direction(self.n2),
            q2=transform.apply_point(self.q2),
            r2=transform.apply_direction(self.r2),
            theta1=self.theta1,
        )


def _rotate(axis: Vec3, angle_rad: float, vector: Vec3) -> Vec3:
    """Rodrigues ``R(axis, angle) @ vector`` for a unit ``axis``."""
    ux, uy, uz = axis
    vx, vy, vz = vector
    cos = math.cos(angle_rad)
    sin = math.sin(angle_rad)
    along = (1.0 - cos) * (ux * vx + uy * vy + uz * vz)
    return (cos * vx + sin * (uy * vz - uz * vy) + along * ux,
            cos * vy + sin * (uz * vx - ux * vz) + along * uy,
            cos * vz + sin * (ux * vy - uy * vx) + along * uz)


def _reflect(origin: Vec3, direction: Vec3, pivot: Vec3,
             normal: Vec3) -> Tuple[Vec3, Vec3]:
    """Strike point and reflected direction of a beam off a mirror.

    Strike points behind the origin are allowed: fitted parameter sets
    may legally describe the same output beams with "behind" strike
    points (gauge freedom); only the resulting beam line matters.
    Raises :class:`NoIntersectionError` for a beam parallel to the
    mirror, like :meth:`repro.geometry.Plane.intersect_ray`.
    """
    ox, oy, oz = origin
    dx, dy, dz = direction
    nx, ny, nz = normal
    denom = dx * nx + dy * ny + dz * nz
    if abs(denom) < 1e-12:
        raise NoIntersectionError("ray is parallel to the plane")
    t = ((pivot[0] - ox) * nx + (pivot[1] - oy) * ny
         + (pivot[2] - oz) * nz) / denom
    twice = 2.0 * denom
    return ((ox + t * dx, oy + t * dy, oz + t * dz),
            (dx - twice * nx, dy - twice * ny, dz - twice * nz))


def _plane(point: Vec3, normal: Vec3) -> Plane:
    return Plane(np.array(point), np.array(normal))


def second_mirror_plane(params: GmaParams, angle2_rad: float) -> Plane:
    """The second mirror's plane alone (the Lemma 1 target plane)."""
    floats = params._floats
    return _plane(floats[6], _rotate(floats[7], angle2_rad, floats[5]))


def trace_floats(params: GmaParams, angle1_rad: float,
                 angle2_rad: float) -> Tuple[Vec3, Vec3]:
    """``G`` at given mechanical mirror angles, as float ``(p, x)``."""
    p0, x0, n1, q1, r1, n2, q2, r2 = params._floats
    mid, mid_direction = _reflect(p0, x0, q1, _rotate(r1, angle1_rad, n1))
    return _reflect(mid, mid_direction, q2, _rotate(r2, angle2_rad, n2))


def trace(params: GmaParams, v1: float, v2: float,
          angle1_rad: Optional[float] = None,
          angle2_rad: Optional[float] = None) -> Ray:
    """Evaluate ``G(v1, v2) -> (p, x)`` as an output :class:`Ray`.

    By default the mirror angles are the paper's linear model
    ``theta1 * v``; callers may pass explicit angles (the hardware
    simulator does, to inject its nonlinearity and jitter).
    """
    if angle1_rad is None:
        angle1_rad = params.theta1 * v1
    if angle2_rad is None:
        angle2_rad = params.theta1 * v2
    out, out_direction = trace_floats(params, angle1_rad, angle2_rad)
    return Ray(np.array(out), np.array(out_direction))


def canonical_gma(theta1: float,
                  placement: Optional[RigidTransform] = None
                 ) -> GmaParams:
    """A physically sensible GVS102-like layout, optionally re-placed.

    In the device frame the input beam travels +x, hits the first
    mirror (vertical rotation axis), turns to +y, hits the second
    mirror (horizontal rotation axis) 15 mm later, and exits along +z.
    ``placement`` moves the whole device into a scene frame.
    """
    params = GmaParams(
        p0=np.array([-30e-3, 0.0, 10e-3]),
        x0=np.array([1.0, 0.0, 0.0]),
        n1=np.array([-1.0, 1.0, 0.0]),
        q1=np.array([0.0, 0.0, 10e-3]),
        r1=np.array([0.0, 0.0, 1.0]),
        n2=np.array([0.0, -1.0, 1.0]),
        q2=np.array([0.0, 15e-3, 10e-3]),
        r2=np.array([1.0, 0.0, 0.0]),
        theta1=theta1,
    )
    if placement is None:
        return params
    return params.transformed(placement)
