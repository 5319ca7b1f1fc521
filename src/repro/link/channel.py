"""The end-to-end FSO channel: geometry in, received power out.

Given the TX assembly, the RX assembly, and the current true headset
pose, the channel traces both of Lemma 1's optical paths -- the real
beam leaving TX and the imaginary beam leaving RX -- and reduces their
mismatch to the two coupling scalars:

* **axis offset**: how far the RX's expected beam point (``p_r``) sits
  from the TX beam's centerline, i.e. which part of the (Gaussian)
  profile the receiver is sampling;
* **incidence angle**: the angle between the arriving *wavefront*
  direction at the receiver and the direction the RX optics expect.
  For a diverging beam the wavefront normal rotates as the receiver
  moves across the cone (finite curvature radius), which is exactly why
  linear headset motion consumes the link's angular tolerance
  (Section 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry import Pose
from ..vrh import RxAssembly, TxAssembly
from .design import NOISE_FLOOR_DBM, LinkDesign

#: Minimum believable propagation distance; guards degenerate geometry.
MIN_RANGE_M = 1e-3


@dataclass(frozen=True)
class AlignmentState:
    """Everything the channel knows about the link at one instant."""

    received_power_dbm: float
    axis_offset_m: float
    incidence_angle_rad: float
    range_m: float
    connected: bool


@dataclass
class FsoChannel:
    """Physics of one TX-to-RX FSO link."""

    design: LinkDesign
    tx: TxAssembly
    rx: RxAssembly

    def evaluate(self, body_pose: Pose) -> AlignmentState:
        """Received power and misalignment for the current GM voltages.

        Runs on plain floats, like ``G``: it is the alignment search's
        power probe and the session's per-slot channel, where numpy's
        per-call overhead on 3-vectors would dominate.
        """
        (ox, oy, oz), (dx, dy, dz) = self.tx.world_beam()
        (px, py, pz), (ux, uy, uz) = self.rx.world_beam(body_pose)

        # Where along the TX beam the receiver sits, and how far off axis
        # (the TX direction is a unit vector, so ``along`` is metric).
        along = (px - ox) * dx + (py - oy) * dy + (pz - oz) * dz
        range_m = max(abs(along), MIN_RANGE_M)
        ex = px - (ox + along * dx)
        ey = py - (oy + along * dy)
        ez = pz - (oz + along * dz)
        axis_offset = math.sqrt(ex * ex + ey * ey + ez * ez)

        # The arriving wavefront direction at the receiver.
        curvature = self.design.beam.curvature_radius_m(range_m)
        if math.isinf(curvature):
            wx, wy, wz = dx, dy, dz
        else:
            wx, wy, wz = (dx + ex / curvature, dy + ey / curvature,
                          dz + ez / curvature)
        # Its angle to the direction the RX optics expect light from.
        cosine = -(wx * ux + wy * uy + wz * uz) / math.sqrt(
            (wx * wx + wy * wy + wz * wz) * (ux * ux + uy * uy + uz * uz))
        incidence = math.acos(min(max(cosine, -1.0), 1.0))

        power = self.design.received_power_dbm(range_m, axis_offset, incidence)
        # Behind the transmitter there is no light at all.
        if along <= 0:
            power = NOISE_FLOOR_DBM
        connected = self.design.sfp.signal_detected(power)
        return AlignmentState(
            received_power_dbm=power,
            axis_offset_m=axis_offset,
            incidence_angle_rad=incidence,
            range_m=range_m,
            connected=connected,
        )

    def received_power_dbm(self, body_pose: Pose) -> float:
        """Shortcut for power-only queries (the alignment search)."""
        return self.evaluate(body_pose).received_power_dbm
