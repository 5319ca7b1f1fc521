"""Fiber-coupling model: received power vs misalignment.

The channel simulator reduces all geometry to two scalars at the RX
collimator lens:

* ``lateral_offset_m`` -- distance between the beam centerline and the
  lens center, measured in the lens plane;
* ``incidence_angle_rad`` -- angle between the beam and the lens axis
  (0 = the perpendicular incidence the paper requires for maximum
  received power).

Coupling loss is modelled as a base (aligned) loss plus *excess* loss
that is quadratic in dB in each normalized misalignment -- i.e. a
Gaussian roll-off in linear power, which matches both Gaussian-beam
overlap integrals and the paper's measured power-vs-misalignment curves
qualitatively.  The width parameters are set per link design in
``repro.link.design`` and calibrated against Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .units import MIN_POWER_DBM

#: Excess loss, in dB, accrued at exactly one misalignment width.
EXCESS_DB_AT_WIDTH = 3.0


@dataclass(frozen=True)
class CouplingModel:
    """Quadratic-in-dB coupling roll-off around perfect alignment.

    ``peak_power_dbm`` is the received power when perfectly aligned;
    ``lateral_width_m`` and ``angular_width_rad`` are the misalignments
    at which 3 dB of excess loss accrues (independently per axis).
    """

    peak_power_dbm: float
    lateral_width_m: float
    angular_width_rad: float

    def __post_init__(self) -> None:
        if self.lateral_width_m <= 0 or self.angular_width_rad <= 0:
            raise ValueError("coupling widths must be positive")

    def excess_loss_db(self, lateral_offset_m: float,
                       incidence_angle_rad: float) -> float:
        """Excess loss beyond the aligned (peak) operating point."""
        lat = lateral_offset_m / self.lateral_width_m
        ang = incidence_angle_rad / self.angular_width_rad
        return EXCESS_DB_AT_WIDTH * (lat * lat + ang * ang)

    def received_power_dbm(self, lateral_offset_m: float,
                           incidence_angle_rad: float) -> float:
        """Received power for a given misalignment state."""
        power = self.peak_power_dbm - self.excess_loss_db(
            abs(lateral_offset_m), abs(incidence_angle_rad))
        return max(power, MIN_POWER_DBM)

    # -- tolerance queries (Section 5.1's evaluation metrics) --------------

    def margin_db(self, sensitivity_dbm: float) -> float:
        """Power margin between aligned operation and receiver sensitivity."""
        return self.peak_power_dbm - sensitivity_dbm

    def angular_tolerance_rad(self, sensitivity_dbm: float) -> float:
        """Largest pure angular misalignment keeping the link connected."""
        margin = self.margin_db(sensitivity_dbm)
        if margin <= 0:
            return 0.0
        return self.angular_width_rad * math.sqrt(margin / EXCESS_DB_AT_WIDTH)

    def lateral_tolerance_m(self, sensitivity_dbm: float) -> float:
        """Largest pure lateral misalignment keeping the link connected."""
        margin = self.margin_db(sensitivity_dbm)
        if margin <= 0:
            return 0.0
        return self.lateral_width_m * math.sqrt(margin / EXCESS_DB_AT_WIDTH)

