"""Vibration overlay: high-frequency pose jitter on any motion.

The Cyclops authors' earlier work ([33], "Handling rack vibrations in
FSO-based data center architectures") studied exactly this failure
mode; a VR deployment sees it too -- a wobbling ceiling mount, a
head-strap resonance, footsteps.  The overlay adds band-limited
sinusoidal jitter to a base profile so the session simulator can ask:
up to what amplitude and frequency does the TP loop cope?

The physics to expect: vibration slower than the ~80 Hz tracking rate
is just motion -- the TP corrects it; vibration near or above it
aliases into uncorrectable misalignment, and only the link's raw
movement tolerance absorbs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..determinism import resolve_rng
from ..geometry import Pose, rotation_matrix


@dataclass
class VibrationOverlay:
    """A base profile plus sinusoidal linear/angular jitter.

    ``linear_amplitude_m`` / ``angular_amplitude_rad`` are per-axis
    peak amplitudes; all six axes share ``frequency_hz`` with random
    (seeded) phases, which makes the jitter elliptical rather than a
    degenerate line.
    """

    base: object
    frequency_hz: float
    linear_amplitude_m: float = 0.0
    angular_amplitude_rad: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ValueError("vibration frequency must be positive")
        if self.linear_amplitude_m < 0 or self.angular_amplitude_rad < 0:
            raise ValueError("amplitudes cannot be negative")
        rng = resolve_rng(seed=self.seed, owner="VibrationOverlay")
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=6)

    @property
    def duration_s(self) -> float:
        return self.base.duration_s

    def pose_at(self, t_s: float) -> Pose:
        base = self.base.pose_at(t_s)
        omega = 2.0 * np.pi * self.frequency_hz
        waves = np.sin(omega * t_s + self._phases)
        offset = self.linear_amplitude_m * waves[:3]
        tilt = self.angular_amplitude_rad * waves[3:]
        angle = float(np.linalg.norm(tilt))
        if angle > 1e-15:
            wobble = rotation_matrix(tilt / angle, angle)
        else:
            wobble = np.eye(3)
        return Pose(base.position + offset,
                    wobble @ base.orientation)

