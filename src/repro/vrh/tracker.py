"""VRH-T: the headset's built-in tracking system, as Cyclops sees it.

Cyclops leverages the headset's inside-out tracker rather than adding
its own (Section 3).  Two properties of VRH-T shape the whole design:

1. **Unknown frame.**  "The position reported by VRH-T is the position
   of some unknown point within VRH in an unknown coordinate space."
   The simulator makes this literal: reports are the true body pose
   composed with a hidden body-to-reference-point offset ``X`` and a
   hidden world-to-VR-space transform ``V``.  Only Section 4.2's joint
   mapping fit ever recovers what it needs of these.
2. **Finite rate and noise.**  Reports arrive every 12-13 ms (0.7 % of
   the time 14-15 ms) and carry noise -- stationary drift up to 1.79 mm
   and 0.41 mrad over 30 minutes (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import constants
from ..geometry import Pose, rotation_matrix


@dataclass
class VrhTracker:
    """Simulated Oculus-Rift-S-class tracking.

    ``vr_from_world`` (V) and ``x_offset`` (X) are the hidden frame
    unknowns; tests may read them, the TP pipeline must not.
    """

    vr_from_world: Pose
    x_offset: Pose
    location_noise_m: float = constants.TRACKER_LOCATION_NOISE_MAX_M / 3.0
    orientation_noise_rad: float = (
        constants.TRACKER_ORIENTATION_NOISE_MAX_RAD / 3.0)
    #: Measurement-noise source, required: constructing without one
    #: raises (see :mod:`repro.determinism`).
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.rng is None:
            raise ValueError("VrhTracker needs an explicit "
                             "rng=np.random.Generator")
        if self.location_noise_m < 0 or self.orientation_noise_rad < 0:
            raise ValueError("noise magnitudes cannot be negative")

    # -- report content ------------------------------------------------------

    def true_report_transform(self, body_pose: Pose) -> Pose:
        """Noise-free reported pose: ``V o W o X``."""
        return self.vr_from_world.compose(body_pose).compose(self.x_offset)

    def report(self, body_pose: Pose) -> Pose:
        """One VRH-T position report for the current true body pose."""
        clean = self.true_report_transform(body_pose)
        position = clean.position + self.rng.normal(
            0.0, self.location_noise_m, size=3)
        if self.orientation_noise_rad > 0:
            axis = self.rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            wobble = rotation_matrix(
                axis, self.rng.normal(0.0, self.orientation_noise_rad))
        else:
            wobble = np.eye(3)
        return Pose(position, wobble @ clean.orientation)

    # -- report timing -------------------------------------------------------

    def next_period_s(self) -> float:
        """Delay until the next report.

        Uniform in 12-13 ms, except 0.7 % of reports arrive after a
        14-15 ms gap -- the distribution measured on the Rift S.
        """
        if self.rng.random() < constants.TRACKER_SLOW_FRACTION:
            low = constants.TRACKER_SLOW_PERIOD_MIN_S
            high = constants.TRACKER_SLOW_PERIOD_MAX_S
        else:
            low = constants.TRACKER_PERIOD_MIN_S
            high = constants.TRACKER_PERIOD_MAX_S
        return float(self.rng.uniform(low, high))

