"""Motion profiles: pose-vs-time trajectories for the evaluations.

A *profile* is any object with ``pose_at(t_s) -> Pose`` and a
``duration_s``.  The Section 5.3 experiments use three kinds: pure
linear strokes on a rail, pure angular strokes on a rotation stage, and
hand-held arbitrary motion; all are built on the primitives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..geometry import Pose, normalize, rotation_matrix


@dataclass(frozen=True)
class StaticProfile:
    """No motion at all -- baseline and test fixture."""

    pose: Pose
    duration_s: float = 60.0

    def pose_at(self, t_s: float) -> Pose:
        return self.pose


@dataclass
class StrokeSchedule:
    """Piecewise back-and-forth strokes with per-stroke speeds.

    Models the paper's procedure: "moved continuously from one end
    ... to the other in a single smooth stroke", a momentary rest to
    turn around, then the next stroke, "with gradually increasing
    stroke speeds".  Works for both linear (meters) and angular
    (radians) strokes; ``extent`` and ``speeds`` share units.
    """

    extent: float
    speeds: Sequence[float]
    rest_s: float = 0.25

    def __post_init__(self):
        if self.extent <= 0:
            raise ValueError("stroke extent must be positive")
        if not self.speeds or any(s <= 0 for s in self.speeds):
            raise ValueError("stroke speeds must be positive")
        # The timetable: each listed speed gets one out-stroke (even
        # index, away from the travel start) and one back-stroke.
        strokes: List[Tuple[float, float, float]] = []
        t = 0.0
        for speed in self.speeds:
            for _ in range(2):
                duration = self.extent / speed
                strokes.append((t, t + duration, speed))
                t += duration + self.rest_s
        self._strokes = tuple(strokes)
        self._duration = t

    @property
    def duration_s(self) -> float:
        """Total schedule duration including rests."""
        return self._duration

    @property
    def strokes(self) -> Tuple[Tuple[float, float, float], ...]:
        """``(start_s, end_s, speed)`` of every stroke, in order.

        Even strokes travel out from the start, odd ones back; a rest
        of ``rest_s`` follows each.
        """
        return self._strokes

    def offset_at(self, t_s: float) -> float:
        """Displacement from the travel start at time ``t_s``.

        Clamps outside the schedule (at rest at whichever end).
        """
        if t_s <= 0:
            return 0.0
        last_end = 0.0
        for index, (start, end, speed) in enumerate(self._strokes):
            if t_s < start:
                return last_end
            outward = index % 2 == 0
            if t_s <= end:
                travelled = speed * (t_s - start)
                if outward:
                    return min(travelled, self.extent)
                return max(self.extent - travelled, 0.0)
            last_end = self.extent if outward else 0.0
        return last_end


@dataclass
class LinearStrokeProfile:
    """Pure linear motion along a rail axis (Fig. 13 top)."""

    base_pose: Pose
    axis: np.ndarray
    schedule: StrokeSchedule

    def __post_init__(self):
        self.axis = normalize(self.axis)

    @property
    def duration_s(self) -> float:
        return self.schedule.duration_s

    def pose_at(self, t_s: float) -> Pose:
        offset = self.schedule.offset_at(t_s)
        return Pose(self.base_pose.position + offset * self.axis,
                    self.base_pose.orientation)


@dataclass
class AngularStrokeProfile:
    """Pure angular motion about a rotation-stage axis (Fig. 13 bottom).

    The stage rotates the whole RX assembly about a vertical axis
    through the platform center; strokes sweep symmetrically around
    the base orientation.
    """

    base_pose: Pose
    axis: np.ndarray
    schedule: StrokeSchedule

    def __post_init__(self):
        self.axis = normalize(self.axis)

    @property
    def duration_s(self) -> float:
        return self.schedule.duration_s

    def pose_at(self, t_s: float) -> Pose:
        # Center the sweep: offset in [0, extent] -> angle in
        # [-extent/2, +extent/2].
        angle = self.schedule.offset_at(t_s) - self.schedule.extent / 2.0
        rotation = rotation_matrix(self.axis, angle)
        return Pose(self.base_pose.position,
                    rotation @ self.base_pose.orientation)
