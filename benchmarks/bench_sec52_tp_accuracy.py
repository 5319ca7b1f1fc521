"""Section 5.2: tracking frequency, TP latency, and TP accuracy.

Paper observations regenerated here:

* VRH-T reports every 12-13 ms, 0.7 % of the time 14-15 ms;
* pointing computation takes microseconds; mirror rotation + DAC
  conversion ~1-2 ms;
* in 10/10 lock-and-realign trials the link reaches optimal
  throughput, with received power a few dB below the aligned peak.
"""

import time

import numpy as np

from repro import constants
from repro.core import point
from repro.reporting import TextTable, fmt_float


def realign_trials(testbed, system, count=10):
    """The paper's test: move randomly, lock, realign, measure."""
    outcomes = []
    for pose in testbed.evaluation_poses(count):
        command = point(system, testbed.tracker.report(pose))
        testbed.apply_command(command)
        state = testbed.channel.evaluate(pose)
        peak = testbed.design.peak_power_dbm(state.range_m)
        outcomes.append((state.connected,
                         state.received_power_dbm, peak,
                         command.iterations))
    return outcomes


def test_sec52_tp_accuracy(benchmark, rig_10g):
    testbed, session = rig_10g
    system = session.system

    # Tracking-period statistics.
    periods = np.array([testbed.tracker.next_period_s()
                        for _ in range(20000)])
    slow_fraction = float(np.mean(periods >= 0.014))

    # Pointing compute latency: the real-time cost of P.
    pose = testbed.evaluation_poses(1)[0]
    report = testbed.tracker.report(pose)
    result = benchmark(point, system, report)
    start = time.perf_counter()
    point(system, report)
    compute_s = time.perf_counter() - start

    trials = realign_trials(testbed, system)
    connected = sum(1 for ok, *_ in trials if ok)
    excesses = [peak - power for _, power, peak, _ in trials]
    iterations = [it for *_, it in trials]

    table = TextTable(["metric", "measured", "paper"])
    table.add_row("tracking period (ms)",
                  f"{periods.min() * 1e3:.1f}-{periods.max() * 1e3:.1f}",
                  "12-15")
    table.add_row("slow-report fraction",
                  fmt_float(slow_fraction * 100, 2) + " %", "0.7 %")
    table.add_row("pointing compute (ms)", fmt_float(compute_s * 1e3, 2),
                  "<< 1 (usec-scale on native code)")
    table.add_row("actuation latency (ms)",
                  fmt_float(constants.TP_LATENCY_S * 1e3, 1),
                  "1-2")
    table.add_row("realign trials at optimal", f"{connected}/10", "10/10")
    table.add_row("power below peak (dB)",
                  fmt_float(float(np.mean(excesses)), 1), "3-4")
    table.add_row("pointing iterations",
                  f"{min(iterations)}-{max(iterations)}", "2-5")
    print("\nSection 5.2 -- tracking and pointing performance")
    print(table.render())

    assert 0.012 <= periods.min() and periods.max() <= 0.015
    assert 0.002 <= slow_fraction <= 0.015
    assert connected == 10
    assert float(np.mean(excesses)) < 6.0
    assert max(iterations) <= 8
