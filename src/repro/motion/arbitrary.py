"""Hand-held arbitrary motion (Fig. 12c / Fig. 14).

For the user study the RX assembly is detached from the stages and
moved around by hand: simultaneous, smoothly varying linear and angular
motion.  We synthesize it as band-limited sums of sinusoids (hand
motion lives below ~2 Hz) whose amplitudes ramp up over the run, so one
profile sweeps the whole speed range just like the paper's gradually
more vigorous waving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..determinism import resolve_rng
from ..geometry import Pose, rotation_matrix

#: Hand-motion band: component frequencies drawn from this range (Hz).
FREQUENCY_BAND_HZ = (0.25, 1.8)

#: Number of sinusoid components per axis.
COMPONENTS = 3


def _component_set(rng: np.random.Generator) -> tuple:
    """Random frequencies (rad/s) and phases for one axis."""
    freqs = 2.0 * np.pi * rng.uniform(*FREQUENCY_BAND_HZ, size=COMPONENTS)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=COMPONENTS)
    weights = rng.uniform(0.5, 1.0, size=COMPONENTS)
    # Normalize so the worst-case speed (sum of |A w|) is exactly 1.
    weights /= float(np.sum(weights * freqs))
    return freqs, phases, weights


@dataclass
class HandheldProfile:
    """Mixed linear + angular motion with ramping intensity.

    ``peak_linear_m_s`` and ``peak_angular_rad_s`` are the speeds
    reached at the *end* of the run; intensity ramps linearly from
    ``ramp_start_fraction`` of them.
    """

    base_pose: Pose
    peak_linear_m_s: float
    peak_angular_rad_s: float
    duration_s: float = 60.0
    ramp_start_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.peak_linear_m_s < 0 or self.peak_angular_rad_s < 0:
            raise ValueError("peak speeds cannot be negative")
        if not 0.0 <= self.ramp_start_fraction <= 1.0:
            raise ValueError("ramp start fraction must be in [0, 1]")
        rng = resolve_rng(seed=self.seed, owner="HandheldProfile")
        self._position_axes = [_component_set(rng) for _ in range(3)]
        self._rotation_axes = [_component_set(rng) for _ in range(3)]

    def _intensity(self, t_s: float) -> float:
        """Ramp factor in [ramp_start_fraction, 1]."""
        fraction = min(max(t_s / self.duration_s, 0.0), 1.0)
        start = self.ramp_start_fraction
        return start + (1.0 - start) * fraction

    @staticmethod
    def _evaluate(components, t_s: float) -> float:
        """One axis's unit-speed displacement at time ``t_s``."""
        freqs, phases, weights = components
        return float(np.sum(weights * np.sin(freqs * t_s + phases)))

    def pose_at(self, t_s: float) -> Pose:
        intensity = self._intensity(t_s)
        offset = np.array([
            self._evaluate(axis, t_s) for axis in self._position_axes])
        rotation_vector = np.array([
            self._evaluate(axis, t_s) for axis in self._rotation_axes])
        # Each axis is unit-peak-speed; dividing by sqrt(3) bounds the
        # *vector* speed by the requested peak.
        offset *= intensity * self.peak_linear_m_s / math.sqrt(3.0)
        rotation_vector *= (intensity * self.peak_angular_rad_s
                            / math.sqrt(3.0))
        angle = float(np.linalg.norm(rotation_vector))
        if angle > 1e-12:
            wobble = rotation_matrix(rotation_vector / angle, angle)
        else:
            wobble = np.eye(3)
        return Pose(self.base_pose.position + offset,
                    wobble @ self.base_pose.orientation)
