"""The reverse GMA function ``G'`` (Section 4.3).

``G'`` maps a target point ``tau`` to the voltage pair whose beam
passes through ``tau``.  No extra training is needed: the paper's
purely computational iteration linearizes ``G`` around the current
voltages via two finite differences, projects everything onto the plane
``P`` through ``tau`` perpendicular to the current beam, and solves a
2x2 system for the voltage update.  It converges in 2-4 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy.typing as npt

from ..galvo import GalvoHardware
from ..galvo.mirror import trace
from ..geometry import Vec3, as_vec3
from .gma import GmaModel

#: Finite-difference voltage step for the local linearization.
EPSILON_V = 0.01

#: Default convergence threshold: the DAQ's 16-bit voltage step.
DEFAULT_VOLTAGE_STEP_V = GalvoHardware.daq.voltage_step_v


class InverseDivergedError(RuntimeError):
    """Raised when the G' iteration fails to converge on a target."""


@dataclass(frozen=True)
class InverseResult:
    """Solution of ``G'(tau)``: voltages plus convergence diagnostics."""

    v1: float
    v2: float
    iterations: int
    miss_distance_m: float


def _plane_hit(origin: Vec3, direction: Vec3, point: Vec3,
               normal: Vec3) -> Vec3:
    """Where a beam's line crosses the plane through ``point``.

    Hits behind the beam's origin count (backwards geometry is
    tolerated); ``normal`` is a unit vector, and the beam direction is
    normalized first.
    """
    dx, dy, dz = direction
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    dx, dy, dz = dx / length, dy / length, dz / length
    nx, ny, nz = normal
    denom = dx * nx + dy * ny + dz * nz
    if abs(denom) < 1e-12:
        raise InverseDivergedError(
            "beam became parallel to the target plane")
    ox, oy, oz = origin
    t = ((point[0] - ox) * nx + (point[1] - oy) * ny
         + (point[2] - oz) * nz) / denom
    return ox + t * dx, oy + t * dy, oz + t * dz


def _miss_distance(origin: Vec3, direction: Vec3, point: Vec3) -> float:
    """Distance from ``point`` to a beam's line.

    The distance to the infinite line, not to the half-line; the
    direction is normalized first.
    """
    dx, dy, dz = direction
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    dx, dy, dz = dx / length, dy / length, dz / length
    ox, oy, oz = point[0] - origin[0], point[1] - origin[1], \
        point[2] - origin[2]
    along = ox * dx + oy * dy + oz * dz
    ex, ey, ez = ox - along * dx, oy - along * dy, oz - along * dz
    return math.sqrt(ex * ex + ey * ey + ez * ez)


def solve(model: GmaModel, target: npt.ArrayLike,
          v1: float = 0.0, v2: float = 0.0,
          voltage_step_v: float = DEFAULT_VOLTAGE_STEP_V,
          max_iterations: int = 25) -> InverseResult:
    """Find voltages whose modelled beam passes through ``target``.

    Follows Section 4.3's four steps per iteration:

    1. evaluate ``G`` at ``(v1, v2)``, ``(v1 + eps, v2)`` and
       ``(v1, v2 + eps)``;
    2. build the plane ``P`` through ``tau`` perpendicular to the
       current beam, and intersect all three beams with it (``k0``,
       ``k1``, ``k2``);
    3. express the required in-plane displacement ``tau - k0`` in the
       basis of the per-epsilon displacements ``u1 = k1 - k0`` and
       ``u2 = k2 - k0``: the 3x2 least squares for ``(a, b)``, solved
       as its 2x2 normal equations by Cramer's rule;
    4. update ``v1 += a * eps``, ``v2 += b * eps``; stop once the
       update falls below the GM's minimum voltage step.

    The iteration runs on plain floats
    (:func:`repro.galvo.mirror.trace`), and so does
    ``miss_distance_m``: one more trace at the converged voltages and a
    point-to-line distance.  A non-finite ``target`` or seed voltage
    raises :class:`InverseDivergedError` before the first iteration,
    and so does a singular finite-difference basis during it.
    """
    tau = as_vec3(target)
    if not (all(map(math.isfinite, tau.tolist())) and math.isfinite(v1)
            and math.isfinite(v2)):
        raise InverseDivergedError(
            f"G' needs a finite target and seed, got target {tau} "
            f"from voltages ({v1}, {v2})")
    tx, ty, tz = tau.tolist()
    point = (tx, ty, tz)
    params = model.params
    theta1 = params.theta1
    for iteration in range(1, max_iterations + 1):
        origin, direction = trace(params, theta1 * v1, theta1 * v2)
        dx, dy, dz = direction
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        normal = (dx / length, dy / length, dz / length)
        k0x, k0y, k0z = _plane_hit(origin, direction, point, normal)
        k1x, k1y, k1z = _plane_hit(
            *trace(params, theta1 * (v1 + EPSILON_V), theta1 * v2),
            point, normal)
        k2x, k2y, k2z = _plane_hit(
            *trace(params, theta1 * v1, theta1 * (v2 + EPSILON_V)),
            point, normal)
        u1x = (k1x - k0x) / EPSILON_V
        u1y = (k1y - k0y) / EPSILON_V
        u1z = (k1z - k0z) / EPSILON_V
        u2x = (k2x - k0x) / EPSILON_V
        u2y = (k2y - k0y) / EPSILON_V
        u2z = (k2z - k0z) / EPSILON_V
        rx, ry, rz = tx - k0x, ty - k0y, tz - k0z
        g11 = u1x * u1x + u1y * u1y + u1z * u1z
        g12 = u1x * u2x + u1y * u2y + u1z * u2z
        g22 = u2x * u2x + u2y * u2y + u2z * u2z
        b1 = u1x * rx + u1y * ry + u1z * rz
        b2 = u2x * rx + u2y * ry + u2z * rz
        det = g11 * g22 - g12 * g12
        if det == 0.0:
            raise InverseDivergedError(
                f"singular finite-difference basis at ({v1}, {v2})")
        a = (b1 * g22 - g12 * b2) / det
        b = (g11 * b2 - g12 * b1) / det
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InverseDivergedError(
                f"non-finite G' step ({a}, {b}) at ({v1}, {v2})")
        v1 += a
        v2 += b
        if max(abs(a), abs(b)) < voltage_step_v:
            miss = _miss_distance(
                *trace(params, theta1 * v1, theta1 * v2), point)
            return InverseResult(v1=v1, v2=v2, iterations=iteration,
                                 miss_distance_m=miss)
    raise InverseDivergedError(
        f"G' did not converge on {tau} in {max_iterations} iterations")
