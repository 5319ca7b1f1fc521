"""The RX assembly: headset plus rigidly attached receive optics.

In the prototype the RX GMA (galvo + collimator + SFP fiber) and the
Oculus Rift S are bolted to one breadboard (Fig. 12), so the GMA rides
rigidly with the headset body frame.  :class:`RxAssembly` captures that
rigid attachment: it owns the ground-truth RX galvo hardware (whose
parameters live in the GMA's own K-space) and the fixed K-space-to-body
transform, and answers world-frame geometry queries for any body pose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..galvo import GalvoHardware
from ..geometry import Plane, Ray, RigidTransform, Vec3, apply_ray_floats
from .pose import Pose


@dataclass
class RxAssembly:
    """Receive terminal riding on the headset.

    ``kspace_to_body`` is where the GMA sits relative to the headset
    body frame -- fixed at assembly time, never directly observable;
    the Section 4.2 fit learns (a function of) it.
    """

    hardware: GalvoHardware
    kspace_to_body: RigidTransform

    def body_to_world(self, body_pose: Pose) -> RigidTransform:
        """Transform from the headset body frame into the world."""
        return body_pose.as_transform()

    def kspace_to_world(self, body_pose: Pose) -> RigidTransform:
        """Transform from the GMA's K-space into the world."""
        return self.body_to_world(body_pose).compose(self.kspace_to_body)

    def world_beam(self, body_pose: Pose) -> Ray:
        """The imaginary beam emanating from RX, in world coordinates.

        This is Lemma 1's "optical path of an imaginary beam emanating
        from RX": the collimator's outgoing path through the RX GM for
        the currently applied voltages.
        """
        return self.kspace_to_world(body_pose).apply_ray(
            self.hardware.output_beam())

    def world_beam_floats(self, body_pose: Pose) -> Tuple[Vec3, Vec3]:
        """:meth:`world_beam` as float ``(origin, direction)`` triples.

        Applies ``kspace_to_body`` and then the pose -- the map
        :meth:`kspace_to_world` composes -- one after the other.
        """
        in_body = apply_ray_floats(
            self.kspace_to_body.rotation, self.kspace_to_body.translation,
            *self.hardware.output_beam_floats())
        return apply_ray_floats(body_pose.orientation, body_pose.position,
                                *in_body)

    def world_second_mirror_plane(self, body_pose: Pose) -> Plane:
        """The RX GM's second-mirror plane, in world coordinates."""
        plane = self.hardware.second_mirror_plane()
        transform = self.kspace_to_world(body_pose)
        return Plane(transform.apply_point(plane.point),
                     transform.apply_direction(plane.normal))


@dataclass
class TxAssembly:
    """Transmit terminal, statically mounted (e.g. on the ceiling)."""

    hardware: GalvoHardware
    kspace_to_world: RigidTransform

    def world_beam(self) -> Ray:
        """The beam currently launched by TX, in world coordinates."""
        return self.kspace_to_world.apply_ray(self.hardware.output_beam())

    def world_beam_floats(self) -> Tuple[Vec3, Vec3]:
        """:meth:`world_beam` as float ``(origin, direction)`` triples."""
        return apply_ray_floats(
            self.kspace_to_world.rotation, self.kspace_to_world.translation,
            *self.hardware.output_beam_floats())

    def world_second_mirror_plane(self) -> Plane:
        """The TX GM's second-mirror plane, in world coordinates."""
        plane = self.hardware.second_mirror_plane()
        return Plane(self.kspace_to_world.apply_point(plane.point),
                     self.kspace_to_world.apply_direction(plane.normal))
