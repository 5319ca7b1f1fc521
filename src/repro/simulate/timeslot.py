"""The Section 5.4 trace-driven link simulation.

The paper's methodology, verbatim: time is divided into 1 ms slots; the
link starts aligned; whenever a head position is reported (every 10 ms
in the traces), the TP mechanism realigns in 1-2 ms leaving a residual
lateral error of 4.54 mm and angular error of 4.54/1.75 mrad (Table 2's
combined RX error over the 1.75 m link).  Between reports the beam
drifts at the trace's inter-report rate, and a slot is marked
disconnected when the accumulated lateral or angular error exceeds the
25G link's tolerances (6 mm, 8.73 mrad).

This module holds the model's parameters.  The slot arithmetic runs
in :mod:`repro.simulate.batch`, over a whole
:class:`~repro.motion.TraceBatch` at once; the equality oracle is
``reference_simulate_trace`` in ``tests/oracles.py``, the slot-by-slot
loop, which the property tests compare element for element.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .. import constants


@dataclass(frozen=True)
class TimeslotParams:
    """The Section 5.4 simulation constants (all overridable).

    ``tp_latency_slots`` is the number of slots after a report before
    the realignment lands.  If it reaches or exceeds the report period
    (``slots_per_report``, i.e. the corpus ``dt_s / slot_s``) the
    realignment never lands inside any report interval — the next
    report supersedes it first — so the error drifts without bound.
    That is a deliberately modelled "TP too slow" regime, not a
    configuration error, so it is allowed and covered by regression
    tests rather than rejected here.  A latency that is not a whole
    number of slots is rejected: slots are the model's time step.
    The slot length and tolerances must be finite, and the residuals
    finite and non-negative; a NaN would compare false everywhere and
    silently read as 0 % availability.
    """

    slot_s: float = constants.SLOT_S
    tp_latency_slots: int = 2
    residual_lateral_m: float = constants.TRACE_TP_LATERAL_ERROR_M
    residual_angular_rad: float = constants.TRACE_TP_ANGULAR_ERROR_RAD
    lateral_tolerance_m: float = constants.LINK_25G_LINEAR_TOLERANCE_M
    angular_tolerance_rad: float = (
        constants.LINK_25G_RX_ANGULAR_TOLERANCE_MRAD * 1e-3)

    def __post_init__(self):
        if not (math.isfinite(self.slot_s) and self.slot_s > 0):
            raise ValueError("slot length must be finite and positive, "
                             f"got {self.slot_s!r}")
        try:
            latency = operator.index(self.tp_latency_slots)
        except TypeError:
            raise ValueError(
                "TP latency must be a whole number of slots") from None
        if latency < 0:
            raise ValueError("TP latency cannot be negative")
        for name in ("residual_lateral_m", "residual_angular_rad"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}")
        for name in ("lateral_tolerance_m", "angular_tolerance_rad"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if (self.lateral_tolerance_m <= self.residual_lateral_m
                or self.angular_tolerance_rad <= self.residual_angular_rad):
            raise ValueError(
                "tolerances must exceed the TP residual errors")

