"""The rotation stage (Fig. 12b): pure-angular-motion test fixture."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry import Pose, normalize
from .profiles import AngularStrokeProfile, StrokeSchedule


@dataclass(frozen=True)
class RotationStage:
    """A stage rotating the breadboard about a (vertical) axis.

    The rail carriage is locked, so position never changes; strokes
    sweep +/- half the range about the mounted orientation.
    """

    axis: np.ndarray
    range_rad: float = math.radians(30.0)

    def __post_init__(self):
        object.__setattr__(self, "axis", normalize(self.axis))
        if self.range_rad <= 0:
            raise ValueError("rotation range must be positive")

    def stroke_profile(self, center_pose: Pose,
                       speeds_rad_s: Sequence[float],
                       rest_s: float = 0.25) -> AngularStrokeProfile:
        """Back-and-forth angular strokes around the center pose."""
        schedule = StrokeSchedule(extent=self.range_rad,
                                  speeds=list(speeds_rad_s), rest_s=rest_s)
        return AngularStrokeProfile(base_pose=center_pose,
                                    axis=np.array(self.axis),
                                    schedule=schedule)
