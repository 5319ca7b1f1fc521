"""Dataset-level availability analysis (Fig. 16 and the 98.6 % claim)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..motion import HeadTrace
from .batch import simulate_batch
from .timeslot import TimeslotParams, TimeslotResult


@dataclass(frozen=True)
class AvailabilityReport:
    """Aggregate connectivity over a trace dataset."""

    per_trace_availability: np.ndarray
    overall_availability: float
    best: float
    worst: float

    def disconnection_cdf(self) -> tuple:
        """CDF of per-trace disconnected percentage (Fig. 16's axes).

        Returns ``(disconnected_percent_sorted, cumulative_fraction)``.
        """
        disconnected = np.sort(
            (1.0 - self.per_trace_availability) * 100.0)
        fractions = np.arange(1, disconnected.size + 1) / disconnected.size
        return disconnected, fractions

    def effective_bandwidth_gbps(self, optimal_gbps: float) -> float:
        """The paper's "effective bandwidth" readout.

        A 1 ms slot carries many packets on a 25G link, so a protocol
        sees roughly availability x optimal throughput.
        """
        return self.overall_availability * optimal_gbps


def simulate_dataset(traces: Sequence[HeadTrace],
                     params: TimeslotParams = TimeslotParams(),
                     workers: Optional[int] = 1) -> List[TimeslotResult]:
    """Replay every trace through the Section 5.4 model.

    :func:`repro.simulate.batch.simulate_batch` as per-trace views, in
    trace order for any ``workers`` setting, so downstream aggregation
    is deterministic.  The corpus must be rectangular (one ``dt_s``
    and length, as the generated datasets always are); a ragged one
    raises ``ValueError``.
    """
    return simulate_batch(traces, params=params,
                          workers=workers).results()


def report(results: Sequence[TimeslotResult]) -> AvailabilityReport:
    """Aggregate slot connectivity into the Fig. 16 quantities."""
    if not results:
        raise ValueError("no results to aggregate")
    per_trace = np.array([r.availability for r in results])
    # Totals come straight from the connected arrays: one size read and
    # one popcount per trace, instead of rescanning via the off_slots
    # property.
    total_slots = sum(r.connected.size for r in results)
    total_on = sum(int(np.count_nonzero(r.connected)) for r in results)
    if total_slots == 0:
        raise ValueError("results contain no slots")
    return AvailabilityReport(
        per_trace_availability=per_trace,
        overall_availability=total_on / total_slots,
        best=float(per_trace.max()),
        worst=float(per_trace.min()),
    )
