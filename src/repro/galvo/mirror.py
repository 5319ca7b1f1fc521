"""The GMA parameter set and its exact two-mirror forward trace.

Section 4.1 parameterizes a GM assembly (GMA) by:

* input beam: originating point ``p0`` and direction ``x0``;
* first mirror: rest normal ``n1``, pivot ``q1`` (a point on both the
  mirror plane and its rotation axis), rotation axis ``r1``;
* second mirror: ``n2``, ``q2``, ``r2``;
* voltage-to-angle scale ``theta1`` (radians of mirror rotation per
  volt), assumed identical for both mirrors.

:func:`trace` is the paper's closed-form expression for
``G(v1, v2) = (p, x)``: rotate each normal by ``R(r_i, angle_i)`` and
chain two reflections.  The learned model (:mod:`repro.core.gma`)
passes the linear angles ``theta1 * v_i``; the simulated "real"
hardware (:mod:`repro.galvo.galvo`) passes its true angles, with
hidden imperfections on top.

The trace runs on plain Python floats and returns the beam as a float
``(origin, direction)`` pair: numpy's per-call overhead on 3-vectors is
most of the cost of ``G``, and ``G`` runs inside every calibration and
pointing loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..geometry import (
    NoIntersectionError,
    Pose,
    Vec3,
    as_vec3,
    normalize,
)

#: The vector fields of :class:`GmaParams`, in ``to_vector`` order.
_VECTOR_FIELDS = ("p0", "x0", "n1", "q1", "r1", "n2", "q2", "r2")

#: The fields among them that are unit directions.
_DIRECTION_FIELDS = frozenset(("x0", "n1", "r1", "n2", "r2"))


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
        """Validate every field and normalize the directions.

        A non-finite vector entry (checked before that vector is
        normalized) or a non-finite or non-positive ``theta1`` raises
        ``ValueError`` naming the field.
        """
        floats = []
        for name in _VECTOR_FIELDS:
            vector = as_vec3(getattr(self, name))
            if not all(map(math.isfinite, vector.tolist())):
                raise ValueError(f"GmaParams.{name} must be finite, "
                                 f"got {vector}")
            if name in _DIRECTION_FIELDS:
                vector = normalize(vector)
            object.__setattr__(self, name, vector)
            floats.append(tuple(vector.tolist()))
        if not (math.isfinite(self.theta1) and self.theta1 > 0):
            raise ValueError(f"GmaParams.theta1 must be positive and "
                             f"finite, got {self.theta1}")
        object.__setattr__(self, "_floats", tuple(floats))

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

    def transformed(self, transform: Pose) -> "GmaParams":
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
    mirror.
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


def trace(params: GmaParams, angle1_rad: float,
          angle2_rad: float) -> Tuple[Vec3, Vec3]:
    """``G`` at given mechanical mirror angles: the output beam ``(p, x)``.

    The direction is unit up to rounding (two reflections of the unit
    ``x0``); callers that need it exactly unit normalize it.
    """
    p0, x0, n1, q1, r1, n2, q2, r2 = params._floats
    mid, mid_direction = _reflect(p0, x0, q1, _rotate(r1, angle1_rad, n1))
    return _reflect(mid, mid_direction, q2, _rotate(r2, angle2_rad, n2))


def canonical_gma(theta1: float,
                  placement: Optional[Pose] = None
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
