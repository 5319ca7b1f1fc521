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

    @property
    def link_up(self) -> bool:
        """Whether traffic currently flows."""
        return self._up

    def observe(self, time_s: float, received_power_dbm: float) -> bool:
        """Feed one power sample; returns the resulting link state.

        Samples must arrive in non-decreasing time order.
        """
        if time_s < self._last_time:
            raise ValueError("samples must be time-ordered")
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

