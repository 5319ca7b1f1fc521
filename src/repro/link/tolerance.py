"""Link movement-tolerance evaluation (Section 5.1's two metrics).

Computes, for any :class:`repro.link.LinkDesign`:

* **RX angular tolerance** -- how far the receiver can rotate from the
  aligned position before the link disconnects;
* **TX angular tolerance** -- how far the launched beam can be
  mis-steered (equivalently, how far the receiver can sit off the beam
  axis, divided by range);
* **lateral tolerance** -- how far the receiver can translate.  A
  translation ``d`` both slides the receiver across the profile *and*
  rotates the arriving wavefront by ``d / R`` (R ~ range for our
  diverging beams), so both coupling terms spend the margin at once.

These are the quantities of Table 1 and the Fig. 11 sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from ..optics import tolerance
from .design import LinkDesign


@dataclass(frozen=True)
class ToleranceReport:
    """Movement tolerances of one design at one range."""

    design_name: str
    range_m: float
    beam_diameter_at_rx_m: float
    peak_power_dbm: float
    tx_angular_tolerance_rad: float
    rx_angular_tolerance_rad: float
    lateral_tolerance_m: float


def _check_range(range_m: float) -> None:
    if not (math.isfinite(range_m) and range_m > 0):
        raise ValueError(f"range_m must be finite and positive, "
                         f"got {range_m!r}")


def _tolerance(design: LinkDesign, range_m: float, lateral_rate: float,
               angular_rate: float) -> float:
    return tolerance(design.margin_db(range_m),
                     design.lateral_width_m(range_m),
                     design.angular_width_rad(range_m),
                     lateral_rate, angular_rate)


def rx_angular_tolerance_rad(design: LinkDesign, range_m: float) -> float:
    """Max pure receiver rotation keeping the link connected."""
    _check_range(range_m)
    return _tolerance(design, range_m, 0.0, 1.0)


def tx_angular_tolerance_rad(design: LinkDesign, range_m: float) -> float:
    """Max pure beam-steering error at TX keeping the link connected.

    A steering error of ``theta`` parks the receiver ``range * theta``
    off the beam axis; the wavefront still arrives from the (unmoved)
    apex, so only the lateral term pays.
    """
    _check_range(range_m)
    return _tolerance(design, range_m, range_m, 0.0)


def lateral_tolerance_m(design: LinkDesign, range_m: float) -> float:
    """Max pure receiver translation keeping the link connected."""
    _check_range(range_m)
    curvature = design.beam.curvature_radius_m(range_m)
    return _tolerance(design, range_m, 1.0, 1.0 / curvature)


def evaluate(design: LinkDesign,
             range_m: Optional[float] = None) -> ToleranceReport:
    """Full tolerance report for a design (Table 1 row)."""
    if range_m is None:
        range_m = design.design_range_m
    _check_range(range_m)
    return ToleranceReport(
        design_name=design.name,
        range_m=range_m,
        beam_diameter_at_rx_m=design.beam_diameter_at(range_m),
        peak_power_dbm=design.peak_power_dbm(range_m),
        tx_angular_tolerance_rad=tx_angular_tolerance_rad(design, range_m),
        rx_angular_tolerance_rad=rx_angular_tolerance_rad(design, range_m),
        lateral_tolerance_m=lateral_tolerance_m(design, range_m),
    )


def diameter_sweep(design_factory: Callable[[float], LinkDesign],
                   diameters_m: Iterable[float],
                   range_m: float) -> List[ToleranceReport]:
    """Fig. 11's sweep: tolerances vs beam diameter at RX.

    ``design_factory`` maps a beam diameter to a :class:`LinkDesign`
    (e.g. ``repro.link.link_10g_diverging``).
    """
    _check_range(range_m)
    return [evaluate(design_factory(d), range_m) for d in diameters_m]
