"""Closed-form tolerated-speed predictions.

The paper's speed thresholds arise from one mechanism: between two
VRH-T reports the beam is stale for up to (tracking period + pointing
latency), so motion at speed ``v`` accumulates misalignment
``v * staleness`` on top of the TP residual, and the link drops when
the total excess loss eats the power margin.  Each limit is one
:func:`repro.optics.tolerance` call: a straight misalignment path that
starts at the TP residual and grows ``staleness`` per unit of speed.
The companion bench compares the predictions to the full closed-loop
simulation (they should agree to tens of percent, which is exactly how
well the paper's own Table 1/Table 3 numbers cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import constants
from ..link import LinkDesign
from ..link.tolerance import _check_range
from ..optics import tolerance


@dataclass(frozen=True)
class BudgetInputs:
    """Everything the closed-form threshold needs; a bad value is
    rejected by field name.  ``curvature_radius_m`` may be ``inf``."""

    margin_db: float
    lateral_width_m: float
    angular_width_rad: float
    curvature_radius_m: float
    staleness_s: float
    residual_lateral_m: float
    residual_angular_rad: float

    def __post_init__(self) -> None:
        _require(self, "margin_db", math.isfinite(self.margin_db), "finite")
        _require(self, "curvature_radius_m", self.curvature_radius_m > 0,
                 "positive")
        _require(self, "lateral_width_m",
                 0 < self.lateral_width_m < math.inf, "finite and > 0")
        _require(self, "angular_width_rad",
                 0 < self.angular_width_rad < math.inf, "finite and > 0")
        _require(self, "staleness_s",
                 0 < self.staleness_s < math.inf, "finite and > 0")
        _require(self, "residual_lateral_m",
                 0 <= self.residual_lateral_m < math.inf, "finite and >= 0")
        _require(self, "residual_angular_rad",
                 0 <= self.residual_angular_rad < math.inf, "finite and >= 0")


def _require(inputs: BudgetInputs, name: str, ok: bool, want: str) -> None:
    if not ok:
        raise ValueError(f"{name} must be {want}, "
                         f"got {getattr(inputs, name)!r}")


def default_staleness_s() -> float:
    """Worst-case beam staleness under normal operation.

    One full tracking period (the report can be that old just before
    the next one lands) plus the control + actuation latency.
    """
    return constants.TRACKER_PERIOD_MAX_S + constants.TP_LATENCY_S


def inputs_for(design: LinkDesign, range_m: float = None,
               residual_lateral_m: float = 1.5e-3,
               residual_angular_rad: float = 1.5e-3,
               staleness_s: float = None) -> BudgetInputs:
    """Assemble the budget for a link design.

    The residual defaults are the post-TP errors a calibrated system
    achieves in this simulator (Table 2 scale); pass measured values
    for sharper predictions.
    """
    if range_m is None:
        range_m = design.design_range_m
    _check_range(range_m)
    if staleness_s is None:
        staleness_s = default_staleness_s()
    return BudgetInputs(
        margin_db=design.margin_db(range_m),
        lateral_width_m=design.lateral_width_m(range_m),
        angular_width_rad=design.angular_width_rad(range_m),
        curvature_radius_m=design.beam.curvature_radius_m(range_m),
        staleness_s=staleness_s,
        residual_lateral_m=residual_lateral_m,
        residual_angular_rad=residual_angular_rad,
    )


def _speed_limit(inputs: BudgetInputs, lateral_rate: float,
                 angular_rate: float) -> float:
    return tolerance(inputs.margin_db, inputs.lateral_width_m,
                     inputs.angular_width_rad, lateral_rate, angular_rate,
                     inputs.residual_lateral_m, inputs.residual_angular_rad)


def angular_speed_limit_rad_s(inputs: BudgetInputs) -> float:
    """Max pure rotation rate keeping the link connected.

    A stale rotation at ``omega`` adds ``omega * staleness`` to the
    angular residual; the lateral residual keeps its share of the
    margin.
    """
    return _speed_limit(inputs, 0.0, inputs.staleness_s)


def linear_speed_limit_m_s(inputs: BudgetInputs) -> float:
    """Max pure translation rate keeping the link connected.

    A stale translation ``d = v * staleness`` costs on both axes: it
    slides the receiver across the beam profile (lateral term) and
    rotates the arriving wavefront by ``d / R`` (angular term; zero
    only for ``R = inf``).
    """
    drift = inputs.staleness_s
    return _speed_limit(inputs, drift, drift / inputs.curvature_radius_m)
