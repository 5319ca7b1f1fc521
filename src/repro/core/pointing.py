"""The pointing mechanism ``P`` (Section 4.3).

``P(VRH position) -> (v_tx1, v_tx2, v_rx1, v_rx2)``: from one tracking
report, compute the four GM voltages that re-align the beam.  Per
Lemma 1 the target configuration makes each beam's originating point
coincide with the other beam's strike point, so the algorithm
alternates:

1. evaluate both ``G`` models to get the originating points ``p_t``
   and ``p_r``;
2. aim each GMA at the *other* side's originating point via ``G'``;
3. repeat until the voltages move by less than the minimum GM step.

Converges in 2-5 iterations (matching the paper), because after the
first round each originating point moves only fractions of a
millimeter per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..galvo import CoverageError, GalvoHardware
from ..geometry import Pose
from . import inverse
from .system import LearnedSystem

#: Default cap mirroring the paper's observed 2-5 iterations, padded.
MAX_POINTING_ITERATIONS = 20


class PointingDivergedError(RuntimeError):
    """Raised when the fixed-point iteration fails to settle."""


@dataclass(frozen=True)
class PointingCommand:
    """Output of ``P``: the four voltages plus diagnostics.

    A voltage the DAQ cannot output (beyond its +/-10 V range, or not
    finite) raises :class:`~repro.galvo.CoverageError` naming it: ``P``
    settled outside the GMs' coverage cone.
    """

    v_tx1: float
    v_tx2: float
    v_rx1: float
    v_rx2: float
    iterations: int

    def __post_init__(self) -> None:
        daq = GalvoHardware.daq
        for v in self.voltages:
            if not daq.in_range(v):
                raise CoverageError(
                    f"pointing settled on {v:+.3f} V, outside the "
                    f"+/-{daq.voltage_range_v:.0f} V range")

    @property
    def voltages(self) -> Tuple[float, float, float, float]:
        return self.v_tx1, self.v_tx2, self.v_rx1, self.v_rx2

    @property
    def tx_voltages(self) -> Tuple[float, float]:
        return self.v_tx1, self.v_tx2

    @property
    def rx_voltages(self) -> Tuple[float, float]:
        return self.v_rx1, self.v_rx2


def cold_start_seed(system: LearnedSystem, reported_pose: Pose,
                    voltage_step_v: float = inverse.DEFAULT_VOLTAGE_STEP_V
                    ) -> Tuple[float, float, float, float]:
    """A pose-derived initial guess for ``point`` with no prior command.

    Seeding the fixed-point iteration with all-zero voltages assumes
    the headset sits near both GMAs' rest beams; far from home that
    guess costs extra iterations or diverges outright.  This runs the
    cheap half of one pointing round from rest: aim each GMA at the
    other side's *rest* originating point via one ``G'`` solve each.
    Falls back to the rest voltages if either solve diverges.
    """
    tx = system.tx_model_vr
    rx = system.rx_model_vr(reported_pose)
    p_t = tx.beam(0.0, 0.0)[0]
    p_r = rx.beam(0.0, 0.0)[0]
    try:
        tx_solution = inverse.solve(tx, p_r, 0.0, 0.0,
                                    voltage_step_v=voltage_step_v)
        rx_solution = inverse.solve(rx, p_t, 0.0, 0.0,
                                    voltage_step_v=voltage_step_v)
    except inverse.InverseDivergedError:
        return (0.0, 0.0, 0.0, 0.0)
    return (tx_solution.v1, tx_solution.v2,
            rx_solution.v1, rx_solution.v2)


def point(system: LearnedSystem, reported_pose: Pose,
          initial: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
          voltage_step_v: float = inverse.DEFAULT_VOLTAGE_STEP_V,
          max_iterations: int = MAX_POINTING_ITERATIONS) -> PointingCommand:
    """Compute the realignment voltages for one tracking report.

    ``initial`` seeds the iteration; in steady-state operation the
    previous command is the natural (and fastest) seed, exactly as the
    prototype operates between consecutive VRH-T reports.

    A non-finite ``initial`` raises :class:`PointingDivergedError`
    before the first iteration (a :class:`Pose` already rejects a
    non-finite position and a non-rotation orientation); a settled
    command the DAQ cannot output raises
    :class:`~repro.galvo.CoverageError`.
    """
    v_tx1, v_tx2, v_rx1, v_rx2 = (float(v) for v in initial)
    if not all(map(math.isfinite, (v_tx1, v_tx2, v_rx1, v_rx2))):
        raise PointingDivergedError(
            f"P needs a finite seed, got voltages "
            f"({v_tx1}, {v_tx2}, {v_rx1}, {v_rx2})")
    tx = system.tx_model_vr
    rx = system.rx_model_vr(reported_pose)
    for iteration in range(1, max_iterations + 1):
        p_t = tx.beam(v_tx1, v_tx2)[0]
        p_r = rx.beam(v_rx1, v_rx2)[0]
        tx_solution = inverse.solve(tx, p_r, v_tx1, v_tx2,
                                    voltage_step_v=voltage_step_v)
        rx_solution = inverse.solve(rx, p_t, v_rx1, v_rx2,
                                    voltage_step_v=voltage_step_v)
        moved = max(abs(tx_solution.v1 - v_tx1),
                    abs(tx_solution.v2 - v_tx2),
                    abs(rx_solution.v1 - v_rx1),
                    abs(rx_solution.v2 - v_rx2))
        v_tx1, v_tx2 = tx_solution.v1, tx_solution.v2
        v_rx1, v_rx2 = rx_solution.v1, rx_solution.v2
        if moved < voltage_step_v:
            return PointingCommand(v_tx1=v_tx1, v_tx2=v_tx2,
                                   v_rx1=v_rx1, v_rx2=v_rx2,
                                   iterations=iteration)
    raise PointingDivergedError(
        f"pointing did not settle in {max_iterations} iterations")
