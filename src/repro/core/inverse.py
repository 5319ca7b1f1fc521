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

import numpy as np
import numpy.typing as npt

from ..geometry import NoIntersectionError, Plane, Ray
from .gma import GmaModel

#: Finite-difference voltage step for the local linearization.
EPSILON_V = 0.01

#: Default convergence threshold: the DAQ's 16-bit voltage step.
DEFAULT_VOLTAGE_STEP_V = 20.0 / 2 ** 16


class InverseDivergedError(RuntimeError):
    """Raised when the G' iteration fails to converge on a target."""


@dataclass(frozen=True)
class InverseResult:
    """Solution of ``G'(tau)``: voltages plus convergence diagnostics."""

    v1: float
    v2: float
    iterations: int
    miss_distance_m: float


def _intersection(beam: Ray, plane: Plane) -> np.ndarray:
    """Beam-plane intersection, tolerant of backwards geometry."""
    return plane.intersect_ray(beam, forward_only=False)


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
       ``u2 = k2 - k0`` by a least-squares 2x2 solve for ``(a, b)``;
    4. update ``v1 += a * eps``, ``v2 += b * eps``; stop once the
       update falls below the GM's minimum voltage step.

    A non-finite ``target`` or seed voltage raises
    :class:`InverseDivergedError` before the first iteration.
    """
    tau = np.asarray(target, dtype=float)
    if not (all(map(math.isfinite, tau.tolist())) and math.isfinite(v1)
            and math.isfinite(v2)):
        raise InverseDivergedError(
            f"G' needs a finite target and seed, got target {tau} "
            f"from voltages ({v1}, {v2})")
    for iteration in range(1, max_iterations + 1):
        beam0 = model.beam(v1, v2)
        plane = Plane(tau, beam0.direction)
        try:
            k0 = _intersection(beam0, plane)
            k1 = _intersection(model.beam(v1 + EPSILON_V, v2), plane)
            k2 = _intersection(model.beam(v1, v2 + EPSILON_V), plane)
        except NoIntersectionError as exc:
            raise InverseDivergedError(
                f"beam became parallel to the target plane: {exc}") from exc
        u1 = (k1 - k0) / EPSILON_V
        u2 = (k2 - k0) / EPSILON_V
        basis = np.column_stack([u1, u2])
        coeffs, *_ = np.linalg.lstsq(basis, tau - k0, rcond=None)
        a, b = float(coeffs[0]), float(coeffs[1])
        v1 += a
        v2 += b
        if max(abs(a), abs(b)) < voltage_step_v:
            miss = model.beam(v1, v2).distance_to_point(tau)
            return InverseResult(v1=v1, v2=v2, iterations=iteration,
                                 miss_distance_m=miss)
    raise InverseDivergedError(
        f"G' did not converge on {tau} in {max_iterations} iterations")
