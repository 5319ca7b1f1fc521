"""Ablation: modelling the beam origin ``p`` as voltage-independent.

Footnote 6: "In simpler applications with limited range of motions, p
may be assumed to be a constant as in [32, 33], but in reality it
depends on the voltages -- this dependence results in distortion [58]
and needs to be considered for high accuracy."

:class:`ConstantOriginModel` wraps a full GMA model but pins the
originating point at its rest value, so the ablation bench can measure
exactly how much accuracy the simplification costs across the steering
cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.gma import GmaModel
from ..geometry import NoIntersectionError, Vec3, as_vec3, normalize


def _plane_hit(origin: Vec3, direction: Vec3, point: np.ndarray,
               normal: np.ndarray) -> np.ndarray:
    """Where a beam's line crosses the plane through ``point``.

    ``normal`` is the plane's unit normal and ``direction`` is
    normalized first; hits behind the origin count.
    """
    origin = as_vec3(origin)
    direction = normalize(direction)
    denom = float(np.dot(direction, normal))
    if abs(denom) < 1e-12:
        raise NoIntersectionError("ray is parallel to the plane")
    t = -float(np.dot(origin - point, normal)) / denom
    return origin + t * direction


@dataclass(frozen=True)
class ConstantOriginModel:
    """A GMA model whose beams all emanate from the rest-voltage origin."""

    full_model: GmaModel

    def __post_init__(self):
        object.__setattr__(self, "_origin", self.full_model.beam(0.0, 0.0)[0])

    @property
    def origin(self) -> Vec3:
        """The frozen originating point."""
        return self._origin

    def beam(self, v1: float, v2: float) -> Tuple[Vec3, Vec3]:
        """Direction from the full model, origin pinned at rest."""
        return self._origin, self.full_model.beam(v1, v2)[1]

    def board_error_m(self, v1: float, v2: float, point: np.ndarray,
                      normal: np.ndarray) -> float:
        """Board-hit discrepancy vs the full (distortion-aware) model.

        The board is the plane through ``point`` with unit ``normal``.
        """
        full_hit = _plane_hit(*self.full_model.beam(v1, v2), point, normal)
        const_hit = _plane_hit(*self.beam(v1, v2), point, normal)
        return float(np.linalg.norm(full_hit - const_hit))
