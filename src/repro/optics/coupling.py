"""Fiber-coupling roll-off: excess loss vs misalignment.

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
``repro.link.design`` and calibrated against Table 1.  This module is
the one home of that law; the aligned power lives in
:class:`repro.link.LinkDesign`.
"""

from __future__ import annotations

import math

#: Excess loss, in dB, accrued at exactly one misalignment width.
EXCESS_DB_AT_WIDTH = 3.0


def excess_loss_db(lateral_m: float, lateral_width_m: float,
                   angular_rad: float, angular_width_rad: float) -> float:
    """Excess loss beyond the aligned (peak) operating point.

    ``lateral_width_m`` and ``angular_width_rad`` are the misalignments
    at which 3 dB of excess loss accrues (independently per axis); the
    sign of either misalignment is irrelevant.
    """
    lat = lateral_m / lateral_width_m
    ang = angular_rad / angular_width_rad
    return EXCESS_DB_AT_WIDTH * (lat * lat + ang * ang)


def tolerance(width: float, margin_db: float) -> float:
    """Largest misalignment on one axis that ``margin_db`` absorbs.

    ``width`` is that axis's 3 dB width; with no margin the link has no
    tolerance at all.
    """
    if margin_db <= 0:
        return 0.0
    return width * math.sqrt(margin_db / EXCESS_DB_AT_WIDTH)
