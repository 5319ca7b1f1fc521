"""Synthetic head-movement traces (the Section 5.4 dataset substitute).

The paper replays 500 one-minute traces (50 viewers x 10 360-degree
YouTube videos, sampled every 10 ms) from Lo et al.'s public dataset.
That dataset is not redistributable here, so we synthesize traces with
the same format and the same statistical character:

* yaw-dominant head rotation: a slow Ornstein-Uhlenbeck wander (gaze
  drift) plus Poisson-arriving "saccade" bursts (fast re-orientations
  toward new content), pitch and roll smaller;
* near-stationary position: seated/standing sway at centimeters;
* wide cross-trace variability: each viewer and each video carries an
  activity multiplier, so quiet traces barely move while busy ones
  whip around -- reproducing Fig. 16's spread from 99.98 % down to
  ~95 % availability.

Two generation profiles exist: ``NORMAL_USE`` matches the Fig. 3 study
(speeds at most ~19 deg/s and ~14 cm/s, i.e. ordinary app usage), and
``VIDEO_360`` matches 360-degree-video viewing, whose saccades are what
actually disconnect the link in Section 5.4.

This module holds the trace model; the generator that draws traces
from these profiles is :mod:`repro.motion.batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry import Pose, euler_to_matrix


@dataclass(frozen=True)
class TraceProfile:
    """Statistical knobs for one kind of viewing behaviour."""

    name: str
    wander_speed_deg_s: float      # OU angular-speed scale (yaw)
    saccade_rate_hz: float         # Poisson arrival rate of fast turns
    saccade_peak_deg_s: float      # typical saccade peak speed
    sway_speed_m_s: float          # linear sway speed scale
    activity_sigma: float          # lognormal spread across traces
    activity_cap: float = 10.0     # truncation of the activity product


NORMAL_USE = TraceProfile(
    name="normal-use",
    wander_speed_deg_s=2.8,
    saccade_rate_hz=0.0,
    saccade_peak_deg_s=0.0,
    sway_speed_m_s=0.022,
    activity_sigma=0.2,
    activity_cap=1.5,
)

VIDEO_360 = TraceProfile(
    name="video-360",
    wander_speed_deg_s=8.0,
    saccade_rate_hz=0.18,
    saccade_peak_deg_s=28.0,
    sway_speed_m_s=0.04,
    activity_sigma=0.3,
    activity_cap=1.7,
)


@dataclass
class HeadTrace:
    """One viewing trace: timestamped poses at the dataset's 10 ms rate.

    ``step_linear_m`` / ``step_angular_rad`` are the exact inter-sample
    motion magnitudes (recorded at generation time), which is all the
    Section 5.4 simulation consumes.
    """

    viewer: int
    video: int
    dt_s: float
    positions: np.ndarray          # (n, 3)
    eulers: np.ndarray             # (n, 3): roll, pitch, yaw
    step_linear_m: np.ndarray      # (n - 1,)
    step_angular_rad: np.ndarray   # (n - 1,)

    def __post_init__(self):
        n = len(self.positions)
        if (len(self.eulers) != n or len(self.step_linear_m) != n - 1
                or len(self.step_angular_rad) != n - 1):
            raise ValueError("trace arrays have inconsistent lengths")

    @property
    def samples(self) -> int:
        return len(self.positions)

    @property
    def duration_s(self) -> float:
        return (self.samples - 1) * self.dt_s

    def pose_at(self, t_s: float) -> Pose:
        """Interpolated pose, for driving the full prototype simulator."""
        index = min(max(t_s / self.dt_s, 0.0), self.samples - 1.0)
        low = int(math.floor(index))
        high = min(low + 1, self.samples - 1)
        frac = index - low
        position = ((1.0 - frac) * self.positions[low]
                    + frac * self.positions[high])
        euler = (1.0 - frac) * self.eulers[low] + frac * self.eulers[high]
        return Pose(position, euler_to_matrix(*euler))
