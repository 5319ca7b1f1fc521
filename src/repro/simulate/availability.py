"""Dataset-level availability analysis (Fig. 16 and the 98.6 % claim)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchTimeslotResult


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


def report(result: BatchTimeslotResult) -> AvailabilityReport:
    """Aggregate slot connectivity into the Fig. 16 quantities."""
    if len(result) == 0:
        raise ValueError("no results to aggregate")
    if result.slots == 0:
        raise ValueError("results contain no slots")
    per_trace = result.per_trace_availability()
    return AvailabilityReport(
        per_trace_availability=per_trace,
        overall_availability=(int(np.count_nonzero(result.connected))
                              / result.connected.size),
        best=float(per_trace.max()),
        worst=float(per_trace.min()),
    )
