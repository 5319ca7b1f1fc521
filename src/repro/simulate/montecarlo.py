"""Multi-seed experiment sweeps.

A single calibrated testbed is one lab; the paper's numbers come from
one prototype.  To know which digits of a result are *stable*, rerun
the pipeline across independently seeded worlds and aggregate.  Used
by tests (is 10/10 realignment a fluke of seed 3?) and available to
users studying the calibration's robustness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core import point
from ..parallel import parallel_map
from .rig import Testbed


@dataclass(frozen=True)
class MetricSummary:
    """Across-seed statistics of one scalar metric."""

    name: str
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1)) if len(self.values) > 1 \
            else 0.0

    @property
    def worst(self) -> float:
        return float(self.values.min())

    @property
    def best(self) -> float:
        return float(self.values.max())


def _eval_seed(metric_fn: Callable[[int], Dict[str, float]],
               seed: int) -> Dict[str, float]:
    """Evaluate one seed (module-level so the pair pickles)."""
    return metric_fn(int(seed))


def sweep_seeds(metric_fn: Callable[[int], Dict[str, float]],
                seeds: Sequence[int],
                workers: Optional[int] = 1) -> Dict[str, MetricSummary]:
    """Evaluate a per-seed metric dictionary across seeds.

    ``workers>1`` fans the seeds out over a process pool (``metric_fn``
    must then be picklable — a lambda degrades to the serial path); the
    per-seed dictionaries are merged in seed order either way, so the
    summaries are identical for any worker count.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    per_seed = parallel_map(partial(_eval_seed, metric_fn),
                            list(seeds), workers=workers)
    collected: Dict[str, List[float]] = {}
    for metrics in per_seed:
        for name, value in metrics.items():
            collected.setdefault(name, []).append(float(value))
    return {name: MetricSummary(name=name, values=np.array(values))
            for name, values in collected.items()}


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
