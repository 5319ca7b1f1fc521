"""Galvo-mirror device specifications.

The prototype uses the ThorLabs GVS102 two-axis scanning galvo system:
10 urad angular accuracy, 300 us small-angle step latency, 0.5 V per
degree of optical deflection.  Its +/-10 V input range is the DAQ's
(:class:`repro.galvo.Daq`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import constants


@dataclass(frozen=True)
class GalvoSpec:
    """Electro-mechanical characteristics of one galvo scanner pair."""

    name: str
    volts_per_optical_degree: float
    angular_accuracy_rad: float
    small_angle_latency_s: float

    def __post_init__(self):
        if self.volts_per_optical_degree <= 0:
            raise ValueError("voltage scale must be positive")

    @property
    def mech_rad_per_volt(self) -> float:
        """Mirror (mechanical) rotation per volt.

        A mirror rotation of ``a`` deflects the reflected beam by
        ``2a`` (optical), so the mechanical scale is half the optical
        one implied by ``volts_per_optical_degree``.
        """
        optical_deg_per_volt = 1.0 / self.volts_per_optical_degree
        return math.radians(optical_deg_per_volt) / 2.0

    def settle_time_s(self, step_rad: float) -> float:
        """Time for the mirror to settle after a step of ``step_rad``.

        Small steps settle in the spec'd small-angle latency; larger
        steps scale with the square root of the step (inertia-limited),
        a standard galvo scaling.
        """
        small_step = math.radians(0.2)  # the spec's "small angle"
        if abs(step_rad) <= small_step:
            return self.small_angle_latency_s
        scale = math.sqrt(abs(step_rad) / small_step)
        return self.small_angle_latency_s * scale


GVS102 = GalvoSpec(
    name="GVS102",
    volts_per_optical_degree=constants.GM_VOLTS_PER_OPTICAL_DEGREE,
    angular_accuracy_rad=constants.GM_ANGULAR_ACCURACY_RAD,
    small_angle_latency_s=constants.GM_SMALL_ANGLE_LATENCY_S,
)
