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
the one home of that law and of its inverse, :func:`tolerance`, which
every movement tolerance and tolerated speed calls; the aligned power
lives in :class:`repro.link.LinkDesign`.
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


def tolerance(margin_db: float, lateral_width_m: float,
              angular_width_rad: float, lateral_rate: float,
              angular_rate: float, lateral_start_m: float = 0.0,
              angular_start_rad: float = 0.0) -> float:
    """Largest motion along a straight path that ``margin_db`` absorbs.

    Motion ``s`` misaligns each axis by ``start + rate * s``; a start
    is what the link already carries (the TP residual).  Excess loss
    minus margin is then ``A s^2 + B s + C``, whose larger root is
    taken in cancellation-free form.  A start that spends the whole
    margin (``C >= 0``, as any start does with no margin) leaves none;
    a path that never gains misalignment leaves an unbounded one.
    """
    lat = lateral_rate / lateral_width_m
    ang = angular_rate / angular_width_rad
    lat0 = lateral_start_m / lateral_width_m
    ang0 = angular_start_rad / angular_width_rad
    a = EXCESS_DB_AT_WIDTH * (lat * lat + ang * ang)
    b = 2.0 * EXCESS_DB_AT_WIDTH * (lat * lat0 + ang * ang0)
    c = EXCESS_DB_AT_WIDTH * (lat0 * lat0 + ang0 * ang0) - margin_db
    if c >= 0:
        return 0.0
    denominator = b + math.sqrt(b * b - 4.0 * a * c)
    return math.inf if denominator == 0 else -2.0 * c / denominator
