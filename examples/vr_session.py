"""A full VR viewing session over the simulated link.

Drives the complete closed loop -- synthetic 360-degree-video head
motion, VRH-T reports, the learned pointing function, galvo steering,
channel physics, SFP link state, and iperf-style measurement -- for a
20-second session, then prints the experience summary::

    python examples/vr_session.py
"""

import numpy as np

from repro.geometry import Pose
from repro.motion import generate_trace
from repro.reporting import TextTable, fmt_float, sparkline
from repro.simulate import PrototypeSession, Testbed


class TraceAroundHome:
    """Adapter: replay a head trace relative to the testbed's home."""

    def __init__(self, trace, home: Pose, duration_s: float):
        self._trace = trace
        self._home = home
        self.duration_s = duration_s

    def pose_at(self, t_s: float) -> Pose:
        relative = self._trace.pose_at(t_s)
        return Pose(self._home.position + relative.position,
                    relative.orientation @ self._home.orientation)


def main():
    print("Calibrating the 10G prototype...")
    testbed = Testbed(seed=21)
    outcome = testbed.calibrate()
    session = PrototypeSession(testbed, outcome.system)

    print("Replaying a 360-degree-video head trace through the live "
          "loop...")
    trace = generate_trace(viewer=4, video=2, seed=2022)
    profile = TraceAroundHome(trace, testbed.home_pose, duration_s=20.0)
    result = session.run(profile)

    optimal = testbed.design.sfp.optimal_throughput_gbps
    throughputs = result.throughputs_gbps()
    table = TextTable(["metric", "value"])
    table.add_row("session length (s)", fmt_float(
        result.sample_times_s[-1], 1))
    table.add_row("link uptime (%)", fmt_float(
        result.uptime_fraction * 100, 2))
    table.add_row("mean throughput (Gbps)", fmt_float(
        float(np.mean(throughputs)), 2))
    table.add_row("optimal throughput (Gbps)", fmt_float(optimal, 1))
    table.add_row("min received power (dBm)", fmt_float(
        float(result.power_dbm.min()), 1))
    table.add_row("pointing updates", str(result.pointing_calls))
    table.add_row("pointing failures", str(result.pointing_failures))
    print()
    print(table.render())

    print("\nthroughput over the session (each char = ~0.3 s):")
    print("  " + sparkline(throughputs, width=66))

    windows = throughputs
    dips = int(np.sum(windows < 0.9 * optimal))
    print(f"\n{dips} of {len(windows)} 50 ms windows fell below 90% of "
          f"optimal throughput.")
    if dips == 0:
        print("The viewer would not have noticed the wireless link at "
              "all.")
    else:
        print("Fast head turns briefly exceeded the link's movement "
              "tolerance,\nexactly the off-slots Section 5.4 "
              "quantifies.")


if __name__ == "__main__":
    main()
