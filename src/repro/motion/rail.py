"""The linear rail (Fig. 12b): pure-linear-motion test fixture."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry import Pose, normalize
from .profiles import LinearStrokeProfile, StrokeSchedule


@dataclass(frozen=True)
class LinearRail:
    """A rail of fixed length along a horizontal axis.

    The breadboard carrying the RX assembly slides along it; the
    rotation stage is locked, so orientation never changes.
    """

    axis: np.ndarray
    length_m: float = 0.4

    def __post_init__(self):
        object.__setattr__(self, "axis", normalize(self.axis))
        if self.length_m <= 0:
            raise ValueError("rail length must be positive")

    def centered_base(self, pose: Pose) -> Pose:
        """Base pose such that ``pose`` is the rail's center."""
        return Pose(pose.position - (self.length_m / 2.0) * self.axis,
                    pose.orientation)

    def stroke_profile(self, center_pose: Pose,
                       speeds_m_s: Sequence[float],
                       rest_s: float = 0.25) -> LinearStrokeProfile:
        """Back-and-forth strokes spanning the rail around a center."""
        schedule = StrokeSchedule(extent=self.length_m,
                                  speeds=list(speeds_m_s), rest_s=rest_s)
        return LinearStrokeProfile(base_pose=self.centered_base(center_pose),
                                   axis=np.array(self.axis),
                                   schedule=schedule)
