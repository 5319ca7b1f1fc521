"""Multi-TX handover (the Section 3 extension).

"To circumvent occasional occlusions and/or limited field-of-view
coverage of the GMs, we can use multiple TXs on the ceiling with
appropriate handover techniques."  The paper does not build this; we
do, as the natural extension of the simulated prototype:

* several ceiling-mounted TX assemblies, each aimed at the play area;
* an occlusion schedule (someone walks through a beam, a raised arm
  blocks the LOS);
* a power-triggered handover controller: when the active link's power
  drops below a switch threshold, re-point to the TX currently
  offering the most power, paying a handover latency.

Pointing uses the per-TX oracle systems (true parameters): the study
isolates *coverage*, not learning accuracy, exactly as Section 3
frames it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import constants
from ..core import LearnedSystem, point
from ..core.gma import GmaModel
from ..core.inverse import InverseDivergedError
from ..core.pointing import PointingDivergedError
from ..determinism import resolve_rng, spawn
from ..galvo import CoverageError, GalvoHardware
from ..geometry import Pose, rotation_between
from ..link import NOISE_FLOOR_DBM, FsoChannel
from ..vrh import TxAssembly
from .rig import (
    HOME_POSITION,
    RX_MIRROR_BODY,
    Testbed,
    _perturbed_params,
    _placement_to,
    _rest_direction,
)

#: Hand over when the active link's power falls this close to the SFP
#: sensitivity.
SWITCH_MARGIN_DB = 3.0

#: The link counts as down for this long after each handover.
HANDOVER_LATENCY_S = 0.05


@dataclass(frozen=True)
class OcclusionEvent:
    """One LOS blockage: a TX index and the interval it is dark."""

    tx_index: int
    start_s: float
    end_s: float

    def active_at(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s


@dataclass(frozen=True)
class HandoverResult:
    """Connectivity of one run."""

    sample_times_s: np.ndarray
    connected: np.ndarray
    active_tx: np.ndarray
    handovers: int

    @property
    def uptime_fraction(self) -> float:
        if self.connected.size == 0:
            return 0.0
        return float(np.mean(self.connected))


class MultiTxRig:
    """A Testbed extended with additional ceiling transmitters."""

    def __init__(self, tx_count: int = 2, seed: int = 7,
                 spacing_m: float = 0.5):
        if tx_count < 1:
            raise ValueError("need at least one TX")
        self.testbed = Testbed(seed=seed, geometry="ceiling")
        self.tx_assemblies: List[TxAssembly] = [
            self.testbed.tx_assembly]
        rng = resolve_rng(seed=seed + 1000, owner="MultiTxRig")
        rx_mirror_home = HOME_POSITION + RX_MIRROR_BODY
        for i in range(1, tx_count):
            # Extra units around the first, aimed at the play area.
            angle = 2.0 * np.pi * i / max(tx_count - 1, 1)
            position = (self.testbed.tx_mirror_world
                        + spacing_m * np.array([np.cos(angle),
                                                np.sin(angle), 0.0]))
            params = _perturbed_params(
                self.testbed.tx_hardware.params, rng, 1e-3,
                np.radians(0.5), 0.01)
            rest_dir = _rest_direction(params)
            aim = rotation_between(rest_dir, rx_mirror_home - position)
            placement = _placement_to(aim, params.q2, position)
            hardware = GalvoHardware(
                params, nonlinearity=self.testbed.nonlinearity,
                rng=spawn(rng))
            self.tx_assemblies.append(TxAssembly(hardware, placement))
        self.channels = [
            FsoChannel(self.testbed.design, tx, self.testbed.rx_assembly)
            for tx in self.tx_assemblies]
        base_oracle = self.testbed.oracle_system()
        self.oracles = [
            LearnedSystem(
                tx_model_vr=GmaModel(tx.hardware.params).transformed(
                    self.testbed.vr_from_world.compose(
                        tx.kspace_to_world)),
                rx_model_kspace=base_oracle.rx_model_kspace,
                rx_mapping=base_oracle.rx_mapping)
            for tx in self.tx_assemblies]

    @property
    def tx_count(self) -> int:
        return len(self.tx_assemblies)

    def point_at(self, tx_index: int, report: Pose) -> Optional[tuple]:
        """Voltages aligning TX ``tx_index`` with the RX.

        Returns None when the solve diverges *or* the solution falls
        outside the GM coverage cone -- the field-of-view limit that
        bounds how far apart the ceiling TXs may sit (Section 3).
        """
        try:
            return point(self.oracles[tx_index], report).voltages
        except (CoverageError, PointingDivergedError,
                InverseDivergedError):
            return None

    def apply(self, tx_index: int, voltages: tuple) -> None:
        self.tx_assemblies[tx_index].hardware.apply(*voltages[:2])
        self.testbed.rx_hardware.apply(*voltages[2:])

    def power_dbm(self, tx_index: int, pose: Pose,
                  occluded: bool) -> float:
        if occluded:
            return NOISE_FLOOR_DBM
        return self.channels[tx_index].received_power_dbm(pose)


@dataclass
class HandoverController:
    """Power-triggered TX selection, stepped on the 1 ms slot."""

    rig: MultiTxRig
    use_handover: bool = True

    def run(self, profile, occlusions: Sequence[OcclusionEvent],
            duration_s: float = None) -> HandoverResult:
        """Replay a motion with occlusions, switching TXs as needed.

        Pointing updates occur at the tracker rate; every update also
        refreshes each candidate TX's aim so a handover lands on an
        already-pointed transmitter (real deployments would keep
        standby TXs tracking).
        """
        if duration_s is None:
            duration_s = profile.duration_s
        rig = self.rig
        testbed = rig.testbed
        sensitivity = testbed.design.sfp.rx_sensitivity_dbm
        active = 0
        handovers = 0
        blocked_until = -1.0
        next_report = 0.0
        commands = [None] * rig.tx_count
        dt_s = constants.SLOT_S
        steps = int(round(duration_s / dt_s))
        times = np.arange(1, steps + 1) * dt_s
        connected = np.zeros(steps, dtype=bool)
        active_history = np.zeros(steps, dtype=int)

        for i, t in enumerate(times):
            t = float(t)
            pose = profile.pose_at(t)
            if t >= next_report:
                report = testbed.tracker.report(pose)
                commands = [rig.point_at(k, report)
                            for k in range(rig.tx_count)]
                next_report = t + testbed.tracker.next_period_s()

            def occluded(k):
                return any(ev.tx_index == k and ev.active_at(t)
                           for ev in occlusions)

            if commands[active] is not None:
                rig.apply(active, commands[active])
            power = rig.power_dbm(active, pose, occluded(active))

            if (self.use_handover and rig.tx_count > 1
                    and power < sensitivity + SWITCH_MARGIN_DB
                    and t >= blocked_until):
                best, best_power = active, power
                for k in range(rig.tx_count):
                    if k == active or commands[k] is None:
                        continue
                    rig.apply(k, commands[k])
                    candidate = rig.power_dbm(k, pose, occluded(k))
                    if candidate > best_power:
                        best, best_power = k, candidate
                if best != active:
                    active = best
                    handovers += 1
                    blocked_until = t + HANDOVER_LATENCY_S
                # Restore the (possibly unchanged) active steering.
                if commands[active] is not None:
                    rig.apply(active, commands[active])
                power = rig.power_dbm(active, pose, occluded(active))

            in_handover = t < blocked_until
            connected[i] = (power >= sensitivity) and not in_handover
            active_history[i] = active

        return HandoverResult(sample_times_s=times, connected=connected,
                              active_tx=active_history,
                              handovers=handovers)
