"""Baseline: probe/feedback-based tracking and pointing (Section 3).

The traditional alternative to Cyclops's learned pointing is to servo
on *received power*: dither the mirror voltages, keep what helps.  The
paper rules it out: "the associated pointing technique will incur
prohibitively high latency due to the need to jointly optimize the TX
and RX steering parameters."

The physics of that argument: each dither probe costs real time -- a
mirror step (~300 us settle), a DAC conversion, and a power
measurement -- and a joint 4-voltage optimization needs dozens of
probes per correction.  While the probes run, the headset keeps
moving.  :class:`ProbeTracker` implements a competent version of the
approach (coordinate dither with per-axis step adaptation) against the
same simulated physics, so the bench can measure exactly how much
slower its tolerated head speed is than the learned pointer's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .. import constants
from ..link import LinkStateMachine
from ..simulate.rig import Testbed

#: Wall-clock cost of one probe: mirror settle + DAC + power read.
PROBE_LATENCY_S = constants.GM_SMALL_ANGLE_LATENCY_S + 1.0e-3

#: Dither amplitude in volts (~0.7 mrad mechanical).
DITHER_STEP_V = 0.04


@dataclass(frozen=True)
class ProbeRunResult:
    """Connectivity of one probe-TP run."""

    sample_times_s: np.ndarray
    power_dbm: np.ndarray
    link_up: np.ndarray
    probes: int

    @property
    def uptime_fraction(self) -> float:
        if self.link_up.size == 0:
            return 0.0
        return float(np.mean(self.link_up))


@dataclass
class ProbeTracker:
    """Power-feedback TP: coordinate dither over the four voltages.

    Each :meth:`run` step advances simulated time by
    ``PROBE_LATENCY_S`` per probe -- the honest cost the paper's
    argument hinges on.
    """

    testbed: Testbed

    def run(self, profile, duration_s: float = None) -> ProbeRunResult:
        """Track a motion profile using only power feedback, starting
        from an exhaustive alignment at the first pose."""
        if duration_s is None:
            duration_s = profile.duration_s
        testbed = self.testbed
        sfp = testbed.design.sfp
        state = LinkStateMachine(sfp, initially_up=True)
        testbed.align_exhaustively(profile.pose_at(0.0))
        voltages = list(testbed.tx_hardware.voltages
                        + testbed.rx_hardware.voltages)

        times: List[float] = []
        powers: List[float] = []
        ups: List[bool] = []
        t = 0.0
        probes = 0
        axis = 0
        directions = [1.0, 1.0, 1.0, 1.0]
        # Power at the current setting, measured "now".
        current_power = self._measure(voltages, profile.pose_at(t))

        def record(time_s: float, power: float) -> None:
            times.append(time_s)
            powers.append(power)
            ups.append(state.observe(time_s, power))

        while t < duration_s:
            # Probe the next axis in its last-good direction.  The
            # beam *physically sits* at the probed setting while the
            # mirror settles and the power is read -- sensing the
            # gradient spends link quality, which is the crux of the
            # paper's argument against feedback-based TP.
            candidate = list(voltages)
            candidate[axis] += directions[axis] * DITHER_STEP_V
            t += PROBE_LATENCY_S
            probes += 1
            pose = profile.pose_at(t)
            probed = self._measure(candidate, pose)
            record(t, probed)
            if probed > current_power:
                voltages = candidate
                current_power = probed
            else:
                # Flip this axis's direction and restore the setting
                # (another mirror move the link must live through).
                directions[axis] *= -1.0
                t += PROBE_LATENCY_S
                probes += 1
                pose = profile.pose_at(t)
                current_power = self._measure(voltages, pose)
                record(t, current_power)
            axis = (axis + 1) % 4
        return ProbeRunResult(sample_times_s=np.array(times),
                              power_dbm=np.array(powers),
                              link_up=np.array(ups, dtype=bool),
                              probes=probes)

    def _measure(self, voltages, pose) -> float:
        """Apply a 4-voltage setting and read received power."""
        clip = self.testbed.tx_hardware.daq.voltage_range_v - 0.01
        v = np.clip(voltages, -clip, clip)
        self.testbed.tx_hardware.apply(float(v[0]), float(v[1]))
        self.testbed.rx_hardware.apply(float(v[2]), float(v[3]))
        return self.testbed.channel.received_power_dbm(pose)
