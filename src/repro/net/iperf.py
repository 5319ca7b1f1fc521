"""Windowed throughput measurement (the simulator's iperf).

The paper measures "average throughput (using iperf)" in 50 ms windows
while the RX moves.  :class:`ThroughputMeter` reproduces that: it is
fed (time, link-up) samples from the session simulator and reports the
achieved goodput per window -- line-rate-limited when the link is up,
zero when it is down or re-locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ThroughputWindow:
    """One measurement window."""

    center_s: float
    throughput_gbps: float
    uptime_fraction: float


@dataclass
class ThroughputMeter:
    """Accumulates link-state samples into fixed windows."""

    optimal_throughput_gbps: float
    window_s: float = 0.05

    def __post_init__(self):
        if self.optimal_throughput_gbps <= 0:
            raise ValueError("optimal throughput must be positive")
        if self.window_s <= 0:
            raise ValueError("window must be positive")
        self._windows: List[ThroughputWindow] = []
        self._current_index = 0
        self._up_time = 0.0
        self._total_time = 0.0

    def record(self, time_s: float, link_up: bool, dt_s: float) -> None:
        """Feed one simulation step of length ``dt_s`` ending at
        ``time_s``."""
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        # A sample *ending* at time_s covers (time_s - dt, time_s]; it
        # belongs to the window containing its start, so a sample that
        # ends exactly on a boundary does not open the next window.
        index = int((time_s - dt_s) / self.window_s + 1e-12)
        while index > self._current_index:
            self._flush()
        self._total_time += dt_s
        if link_up:
            self._up_time += dt_s

    def _flush(self) -> None:
        """Close the current window and start the next."""
        center = (self._current_index + 0.5) * self.window_s
        if self._total_time > 0:
            fraction = min(self._up_time / self._total_time, 1.0)
        else:
            fraction = 0.0
        self._windows.append(ThroughputWindow(
            center_s=center,
            throughput_gbps=fraction * self.optimal_throughput_gbps,
            uptime_fraction=fraction))
        self._current_index += 1
        self._up_time = 0.0
        self._total_time = 0.0

    def finish(self) -> List[ThroughputWindow]:
        """Close the last window and return all of them."""
        if self._total_time > 0:
            self._flush()
        return list(self._windows)
