"""Exhaustive alignment search: the training-data oracle (Section 4.2).

To gather the 5-tuple mapping samples, the prototype finds "the optimal
combination of the four voltages that maximizes the received power at
the RX" by automated exhaustive search over the four GM voltages,
monitoring power via photodiodes.  One search takes 1-2 minutes on the
real rig, which is tolerable because it only runs at deployment.

We implement the search as multi-resolution coordinate descent: sweep
each voltage at a coarse grid step, keep the best, halve the step,
repeat down to the DAQ's voltage resolution.  It assumes the beam
starts within the photodiodes' capture basin -- on the real rig the
deployer coarse-aligns by eye first, and callers here seed the search
accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

#: Coarse-to-fine step schedule, in volts (final steps near DAQ LSB).
STEP_SCHEDULE_V = (0.2, 0.05, 0.012, 0.003, 0.0008, 0.0003)

#: Coordinate sweeps per step size; a sweep that improves nothing ends
#: the step early.
SWEEPS_PER_STEP = 4


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one exhaustive search."""

    voltages: Tuple[float, ...]
    power_dbm: float
    evaluations: int


def search(power_fn: Callable[[float, float, float, float], float],
           seed: Sequence[float]) -> AlignmentResult:
    """Maximize received power over the four GM voltages.

    ``power_fn(v_tx1, v_tx2, v_rx1, v_rx2)`` must return received power
    in dBm; ``seed`` is the by-eye coarse alignment.  Returns the best
    voltages found and the power there.
    """
    voltages = [float(v) for v in seed]
    if len(voltages) != 4:
        raise ValueError("the search runs over exactly four voltages")
    evaluations = 0

    def measure(vs: List[float]) -> float:
        nonlocal evaluations
        evaluations += 1
        return power_fn(*vs)

    best_power = measure(voltages)
    for step in STEP_SCHEDULE_V:
        for _ in range(SWEEPS_PER_STEP):
            improved = False
            for axis in range(4):
                for direction in (+1.0, -1.0):
                    while True:
                        candidate = list(voltages)
                        candidate[axis] += direction * step
                        power = measure(candidate)
                        if power > best_power:
                            voltages = candidate
                            best_power = power
                            improved = True
                        else:
                            break
            if not improved:
                break
    return AlignmentResult(voltages=tuple(voltages), power_dbm=best_power,
                           evaluations=evaluations)
