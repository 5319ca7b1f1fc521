"""Link-layer state: signal detection vs usable link.

The paper observes that "once the link is lost, it takes a few seconds
to regain the link, partly due to the SFPs taking a few seconds to
report that the link is up, after receiving the light" (Section 5.3).
:class:`LinkStateMachine` models that asymmetry: loss of signal drops
the link immediately; a restored signal must persist for the SFP's
re-lock delay before traffic flows again.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from ..optics import Sfp


@dataclass
class LinkStateMachine:
    """Tracks usable-link state from a time series of signal samples."""

    sfp: Sfp
    initially_up: bool = True

    def __post_init__(self) -> None:
        self._up = self.initially_up
        # When the signal became continuously present; -inf means
        # "for as long as we have been watching".
        self._signal_since = -math.inf if self.initially_up else None
        self._last_time = -math.inf
        self._up_time_s = 0.0
        self._observed_s = 0.0

    @property
    def link_up(self) -> bool:
        """Whether traffic currently flows."""
        return self._up

    @property
    def signal_present(self) -> bool:
        """Whether light is currently detected (up or mid-re-lock)."""
        return self._signal_since is not None

    @property
    def up_time_s(self) -> float:
        """Total time the link was usable, over all observed samples."""
        return self._up_time_s

    @property
    def observed_s(self) -> float:
        """Total time spanned by the observe() calls so far."""
        return self._observed_s

    @property
    def uptime_fraction(self) -> float:
        """Time-weighted availability over everything observed."""
        if self._observed_s <= 0.0:
            return 1.0 if self._up else 0.0
        return self._up_time_s / self._observed_s

    def observe(self, time_s: float, received_power_dbm: float) -> bool:
        """Feed one power sample; returns the resulting link state.

        Samples must arrive in non-decreasing time order.
        """
        if time_s < self._last_time:
            raise ValueError("samples must be time-ordered")
        if math.isfinite(self._last_time):
            # The interval (last_time, time_s] carried the *previous*
            # state; account for it before transitioning.
            gap = time_s - self._last_time
            self._observed_s += gap
            if self._up:
                self._up_time_s += gap
        self._last_time = time_s
        if not self.sfp.signal_detected(received_power_dbm):
            self._up = False
            self._signal_since = None
            return self._up
        if self._signal_since is None:
            self._signal_since = time_s
        if not self._up:
            waited = time_s - self._signal_since
            if waited >= self.sfp.relock_delay_s:
                self._up = True
        return self._up

    def throughput_gbps(self) -> float:
        """Instantaneous goodput: optimal when up, zero when down."""
        return self.sfp.optimal_throughput_gbps if self._up else 0.0
