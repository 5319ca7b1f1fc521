"""The RX assembly: headset plus rigidly attached receive optics.

In the prototype the RX GMA (galvo + collimator + SFP fiber) and the
Oculus Rift S are bolted to one breadboard (Fig. 12), so the GMA rides
rigidly with the headset body frame.  :class:`RxAssembly` captures that
rigid attachment: it owns the ground-truth RX galvo hardware (whose
parameters live in the GMA's own K-space) and the fixed K-space-to-body
placement, and answers world-frame geometry queries for any body pose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..galvo import GalvoHardware
from ..geometry import Pose, Vec3


@dataclass
class RxAssembly:
    """Receive terminal riding on the headset.

    ``kspace_to_body`` is where the GMA sits relative to the headset
    body frame -- fixed at assembly time, never directly observable;
    the Section 4.2 fit learns (a function of) it.
    """

    hardware: GalvoHardware
    kspace_to_body: Pose

    def kspace_to_world(self, body_pose: Pose) -> Pose:
        """Placement of the GMA's K-space in the world."""
        return body_pose.compose(self.kspace_to_body)

    def world_beam(self, body_pose: Pose) -> Tuple[Vec3, Vec3]:
        """The imaginary beam emanating from RX, in world coordinates.

        This is Lemma 1's "optical path of an imaginary beam emanating
        from RX": the collimator's outgoing path through the RX GM for
        the currently applied voltages, as float ``(origin, direction)``
        triples.  Applies ``kspace_to_body`` and then the pose -- the
        map :meth:`kspace_to_world` composes -- one after the other.
        """
        in_body = self.kspace_to_body.apply_ray(*self.hardware.output_beam())
        return body_pose.apply_ray(*in_body)


@dataclass
class TxAssembly:
    """Transmit terminal, statically mounted (e.g. on the ceiling)."""

    hardware: GalvoHardware
    kspace_to_world: Pose

    def world_beam(self) -> Tuple[Vec3, Vec3]:
        """The beam currently launched by TX, in world coordinates, as
        float ``(origin, direction)`` triples."""
        return self.kspace_to_world.apply_ray(*self.hardware.output_beam())
