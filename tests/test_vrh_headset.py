"""Unit tests for the TX/RX assemblies (rigid optics mounting).

World beams are float ``(origin, direction)`` pairs; the object path
they must match (``Pose.apply_point``/``apply_direction`` on
an oracle :class:`Ray`) and the second-mirror planes live in
``tests/oracles.py``.
"""

import numpy as np

from repro.galvo import GalvoHardware, GalvoSpec, canonical_gma
from repro.geometry import Pose, euler_to_matrix, rotation_matrix
from repro.vrh import RxAssembly, TxAssembly

from .oracles import world_beam, world_second_mirror_plane


def quiet_hardware():
    spec = GalvoSpec(name="quiet", volts_per_optical_degree=0.5,
                     angular_accuracy_rad=0.0,
                     small_angle_latency_s=300e-6)
    return GalvoHardware(canonical_gma(np.radians(1.0)), spec=spec,
                         rng=np.random.default_rng(0))


def assert_same_beam(beam, ray):
    """A float beam against an oracle Ray, to 1e-12."""
    origin, direction = beam
    np.testing.assert_allclose(origin, ray.origin, rtol=0, atol=1e-12)
    np.testing.assert_allclose(direction, ray.direction, rtol=0,
                               atol=1e-12)


class TestTxAssembly:
    def test_world_beam_is_transformed_kspace_beam(self):
        hw = quiet_hardware()
        placement = Pose(np.array([0.0, 0.0, 2.5]),
                         rotation_matrix([1, 0, 0], 0.3))
        tx = TxAssembly(hw, placement)
        hw.apply(0.5, -0.5)
        assert_same_beam(tx.world_beam(), world_beam(tx))

    def test_mirror_plane_contains_beam_origin(self):
        hw = quiet_hardware()
        tx = TxAssembly(hw, Pose.identity())
        hw.apply(1.0, 1.0)
        plane = world_second_mirror_plane(tx)
        origin, _ = tx.world_beam()
        assert abs(plane.signed_distance(origin)) <= 1e-9


class TestRxAssembly:
    def test_world_beam_is_mounted_then_posed(self):
        hw = quiet_hardware()
        mount = Pose(np.array([0.05, 0.03, 0.10]),
                     rotation_matrix([0, 1, 0], 0.5))
        rx = RxAssembly(hw, mount)
        hw.apply(-1.2, 0.7)
        pose = Pose([1, 2, 3], euler_to_matrix(0.1, 0.2, 0.3))
        assert_same_beam(rx.world_beam(pose), world_beam(rx, pose))

    def test_beam_rides_with_headset(self):
        hw = quiet_hardware()
        rx = RxAssembly(hw, Pose.identity())
        hw.apply(0.0, 0.0)
        home = Pose.identity()
        moved = Pose([0.1, 0.2, 0.3], np.eye(3))
        home_origin, home_direction = rx.world_beam(home)
        moved_origin, moved_direction = rx.world_beam(moved)
        assert np.allclose(np.subtract(moved_origin, home_origin),
                           [0.1, 0.2, 0.3])
        assert np.allclose(moved_direction, home_direction)

    def test_beam_rotates_with_headset(self):
        hw = quiet_hardware()
        rx = RxAssembly(hw, Pose.identity())
        hw.apply(0.0, 0.0)
        turned = Pose([0, 0, 0], rotation_matrix([1, 0, 0], 0.2))
        _, direction = rx.world_beam(turned)
        expected_dir = rotation_matrix([1, 0, 0], 0.2) @ np.array(
            rx.world_beam(Pose.identity())[1])
        assert np.allclose(direction, expected_dir)

    def test_kspace_to_world_composition(self):
        hw = quiet_hardware()
        mount = Pose(np.array([0.05, 0.03, 0.10]),
                     rotation_matrix([0, 1, 0], 0.5))
        rx = RxAssembly(hw, mount)
        pose = Pose([1, 2, 3], euler_to_matrix(0.1, 0.2, 0.3))
        combined = rx.kspace_to_world(pose)
        expected = pose.compose(mount)
        assert combined.almost_equal(expected, tol=1e-12)

    def test_mirror_plane_moves_with_pose(self):
        hw = quiet_hardware()
        rx = RxAssembly(hw, Pose.identity())
        hw.apply(0.3, 0.3)
        a = world_second_mirror_plane(rx, Pose.identity())
        b = world_second_mirror_plane(rx, Pose([1, 0, 0], np.eye(3)))
        assert np.allclose(b.point - a.point, [1, 0, 0])
        assert np.allclose(a.normal, b.normal)
