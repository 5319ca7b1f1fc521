"""Closed-form tolerated-speed predictions.

The paper's speed thresholds arise from one mechanism: between two
VRH-T reports the beam is stale for up to (tracking period + pointing
latency), so motion at speed ``v`` accumulates misalignment
``v * staleness`` on top of the TP residual, and the link drops when
the total excess loss eats the power margin.  This module solves that
budget in closed form; the companion bench compares the predictions to
the full closed-loop simulation (they should agree to tens of
percent, which is exactly how well the paper's own Table 1/Table 3
numbers cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import constants
from ..link import LinkDesign
from ..link.tolerance import _check_range
from ..optics import excess_loss_db, tolerance


@dataclass(frozen=True)
class BudgetInputs:
    """Everything the closed-form threshold needs."""

    margin_db: float
    lateral_width_m: float
    angular_width_rad: float
    curvature_radius_m: float
    staleness_s: float
    residual_lateral_m: float
    residual_angular_rad: float


def default_staleness_s() -> float:
    """Worst-case beam staleness under normal operation.

    One full tracking period (the report can be that old just before
    the next one lands) plus the control + actuation latency.
    """
    return (constants.TRACKER_PERIOD_MAX_S
            + constants.CONTROL_CHANNEL_LATENCY_S
            + constants.DAQ_LATENCY_S)


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


def _excess_db(inputs: BudgetInputs, lateral_m: float,
               angular_rad: float) -> float:
    return excess_loss_db(lateral_m, inputs.lateral_width_m,
                          angular_rad, inputs.angular_width_rad)


def angular_speed_limit_rad_s(inputs: BudgetInputs) -> float:
    """Max pure rotation rate keeping the link connected.

    Rotation consumes the angular budget directly:
    ``residual + omega * staleness`` must stay within the angular
    tolerance implied by the margin (after the lateral residual has
    taken its share).
    """
    lateral_cost = _excess_db(inputs, inputs.residual_lateral_m, 0.0)
    remaining = inputs.margin_db - lateral_cost
    budget = (tolerance(inputs.angular_width_rad, remaining)
              - inputs.residual_angular_rad)
    if budget <= 0:
        return 0.0
    return budget / inputs.staleness_s


def linear_speed_limit_m_s(inputs: BudgetInputs) -> float:
    """Max pure translation rate keeping the link connected.

    A stale translation ``d = v * staleness`` costs on both axes: it
    slides the receiver across the beam profile (lateral term) and,
    for a diverging beam, rotates the arriving wavefront by
    ``d / R`` (angular term).  Solved by bisection on the total
    excess-loss budget.
    """
    def total_excess(v):
        drift = v * inputs.staleness_s
        lateral = inputs.residual_lateral_m + drift
        angular = inputs.residual_angular_rad
        if math.isfinite(inputs.curvature_radius_m):
            angular = angular + drift / inputs.curvature_radius_m
        return _excess_db(inputs, lateral, angular)

    if total_excess(0.0) >= inputs.margin_db:
        return 0.0
    lo, hi = 0.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if total_excess(mid) < inputs.margin_db:
            lo = mid
        else:
            hi = mid
    return lo

