"""Per-seed calibration quality.

A single calibrated testbed is one lab; the paper's numbers come from
one prototype.  :func:`calibration_quality` scores one independently
seeded world, so an experiment can check which digits of a result are
stable across worlds (is 10/10 realignment a fluke of seed 3?).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core import point
from .rig import Testbed


def calibration_quality(seed: int, trials: int = 10) -> Dict[str, float]:
    """One world's headline TP quality numbers (Section 5.2's test).

    Returns the fraction of realignment trials that kept the link
    connected, and the mean power excess below the aligned peak.
    """
    testbed = Testbed(seed=seed)
    outcome = testbed.calibrate()
    connected = 0
    excesses = []
    for pose in testbed.evaluation_poses(trials):
        command = point(outcome.system, testbed.tracker.report(pose))
        testbed.apply_command(command)
        state = testbed.channel.evaluate(pose)
        connected += state.connected
        excesses.append(testbed.design.peak_power_dbm(state.range_m)
                        - state.received_power_dbm)
    return {
        "connected_fraction": connected / trials,
        "excess_db_mean": float(np.mean(excesses)),
        "excess_db_max": float(np.max(excesses)),
    }
