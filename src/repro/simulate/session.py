"""The live prototype loop (Sections 5.2-5.3).

:class:`PrototypeSession` runs the full closed loop against a
:class:`repro.simulate.rig.Testbed`:

* the true headset pose follows a motion profile;
* VRH-T reports arrive every 12-13 ms (with its noise and its unknown
  frame);
* each report triggers the pointing function ``P``; the resulting
  voltages reach the mirrors after the TP latency (RF control channel
  plus DAC conversion);
* the channel is sampled every 1 ms slot, driving the SFP link state
  machine (including the seconds-long re-lock after a loss) and the
  iperf-style windowed throughput meter.

The tolerated-speed thresholds of Figs. 13-15 / Table 3 are *read off*
these runs -- nothing in the loop knows about them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import constants
from ..core import (
    InverseDivergedError,
    LearnedSystem,
    PointingCommand,
    PointingDivergedError,
    cold_start_seed,
    point,
)
from ..galvo import CoverageError
from ..link import LinkStateMachine
from ..net import ThroughputMeter, ThroughputWindow
from .rig import Testbed


@dataclass(frozen=True)
class SessionResult:
    """Everything one run produces."""

    windows: List[ThroughputWindow]
    sample_times_s: np.ndarray
    power_dbm: np.ndarray
    link_up: np.ndarray
    pointing_calls: int
    pointing_failures: int
    #: Commands rejected for leaving the GM coverage cone -- counted
    #: separately from solve divergences (``pointing_failures``) since
    #: the cure differs.
    coverage_failures: int = 0

    @property
    def uptime_fraction(self) -> float:
        if self.link_up.size == 0:
            return 0.0
        return float(np.mean(self.link_up))

    def throughputs_gbps(self) -> np.ndarray:
        return np.array([w.throughput_gbps for w in self.windows])


@dataclass
class PrototypeSession:
    """One testbed + one learned system, ready to run motions.

    The timings are the prototype's: the run starts aligned, the
    channel is sampled every ``constants.SLOT_S`` (1 ms), and a
    report's command reaches the mirrors ``constants.TP_LATENCY_S``
    later (RF control channel plus DAC conversion).
    """

    testbed: Testbed
    system: LearnedSystem

    def run(self, profile,
            duration_s: Optional[float] = None) -> SessionResult:
        """Run the closed loop over a motion profile.

        Each report is solved once, seeded with the last applied
        command (or :func:`~repro.core.cold_start_seed` before the
        first one); a diverged solve, or a command outside the GM
        coverage cone, leaves the mirrors where they are until the
        next report.
        """
        if duration_s is None:
            duration_s = profile.duration_s
        dt_s = constants.SLOT_S
        testbed = self.testbed
        tracker = testbed.tracker
        sfp = testbed.design.sfp
        meter = ThroughputMeter(sfp.optimal_throughput_gbps)
        state = LinkStateMachine(sfp, initially_up=True)

        system = self.system
        failures: Counter = Counter()
        first_report = tracker.report(profile.pose_at(0.0))
        last_command = self._point(system, first_report,
                                   cold_start_seed(system, first_report),
                                   failures)
        pointing_calls = 1
        if last_command is not None:
            testbed.apply_command(last_command)

        next_report_s = tracker.next_period_s()
        pending: Optional[tuple] = None  # (apply_at_s, command)
        times, powers, ups = [], [], []
        steps = int(round(duration_s / dt_s))
        for step in range(1, steps + 1):
            t = step * dt_s
            pose = profile.pose_at(t)

            if pending is not None and t >= pending[0]:
                testbed.apply_command(pending[1])
                last_command = pending[1]
                pending = None

            if t >= next_report_s and pending is None:
                report = tracker.report(pose)
                pointing_calls += 1
                if last_command is not None:
                    seed = last_command.voltages
                else:
                    seed = cold_start_seed(system, report)
                command = self._point(system, report, seed, failures)
                if command is not None:
                    pending = (t + constants.TP_LATENCY_S, command)
                next_report_s = t + tracker.next_period_s()

            power = testbed.channel.evaluate(pose).received_power_dbm
            up = state.observe(t, power)
            meter.record(t, up, dt_s)
            times.append(t)
            powers.append(power)
            ups.append(up)

        return SessionResult(
            windows=meter.finish(),
            sample_times_s=np.array(times),
            power_dbm=np.array(powers),
            link_up=np.array(ups, dtype=bool),
            pointing_calls=pointing_calls,
            pointing_failures=failures["diverged"],
            coverage_failures=failures["coverage"],
        )

    @staticmethod
    def _point(system: LearnedSystem, report, seed,
               failures: Counter) -> Optional[PointingCommand]:
        """Run ``P``; a failed solve means "no update this report".

        Counts a diverged solve under ``"diverged"`` and a command
        outside the GM coverage cone under ``"coverage"``.
        """
        try:
            return point(system, report, initial=seed)
        except CoverageError:
            failures["coverage"] += 1
        except (PointingDivergedError, InverseDivergedError):
            failures["diverged"] += 1
        return None


def surviving_speed_threshold(schedule, windows: List[ThroughputWindow],
                              optimal_gbps: float,
                              fraction: float = 0.9) -> float:
    """Largest stroke speed the link survived (Figs. 13/15 readout).

    A stroke "survives" when every throughput window overlapping it
    stays above ``fraction`` of the optimal throughput.  Returns the
    highest speed below the first failure, 0.0 if even the slowest
    stroke failed, and the top scheduled speed if nothing failed.
    """
    if not windows:
        raise ValueError("no throughput windows to analyze")
    threshold = 0.0
    for index, (start, end, speed) in enumerate(schedule.strokes):
        survived = all(w.throughput_gbps >= fraction * optimal_gbps
                       for w in windows if start <= w.center_s <= end)
        if not survived:
            return threshold
        if index % 2 == 1:  # both strokes at this speed survived
            threshold = speed
    return threshold
