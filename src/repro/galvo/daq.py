"""Data-acquisition (DAQ) device model.

GM voltages are produced by an MCC USB-1608G-class DAQ: a 16-bit DAC
over +/-10 V.  Its observable effect here is voltage quantization; its
conversion latency, the bulk of the 1-2 ms pointing latency (Section
5.2), is part of ``constants.TP_LATENCY_S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import constants


@dataclass(frozen=True)
class Daq:
    """A bipolar DAC: quantizes commanded voltages."""

    bits: int = constants.DAQ_BITS
    voltage_range_v: float = constants.DAQ_VOLTAGE_RANGE_V
    #: One LSB, worked out once: every hardware command quantizes twice.
    _step_v: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("DAC needs at least one bit")
        if self.voltage_range_v <= 0:
            raise ValueError("voltage range must be positive")
        object.__setattr__(self, "_step_v",
                           2.0 * self.voltage_range_v / (2 ** self.bits))

    @property
    def voltage_step_v(self) -> float:
        """Smallest representable voltage change (one LSB)."""
        return self._step_v

    def quantize(self, voltage_v: float) -> float:
        """Clamp to range and round to the nearest DAC code."""
        limit = self.voltage_range_v
        # ``min(max(voltage_v, -limit), limit)`` without the builtins'
        # call overhead: this runs twice per hardware command.
        clamped = -limit if voltage_v < -limit else voltage_v
        if clamped > limit:
            clamped = limit
        step = self._step_v
        return round(clamped / step) * step

    def in_range(self, voltage_v: float) -> bool:
        """True when the commanded voltage is within the output range."""
        return abs(voltage_v) <= self.voltage_range_v
