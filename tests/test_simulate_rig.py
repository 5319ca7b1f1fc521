"""Unit tests for the Testbed rig itself."""

import numpy as np
import pytest

from repro.link import link_25g
from repro.simulate import Testbed
from repro.simulate.rig import (
    HOME_POSITION,
    RX_MIRROR_BODY,
    TX_MIRROR_BENCH,
    TX_MIRROR_CEILING,
    _perturbed_params,
    _placement_to,
)
from repro.galvo import canonical_gma
from repro.geometry import Pose, rotation_matrix

from .oracles import Ray


class TestConstruction:
    def test_deterministic_for_seed(self):
        a = Testbed(seed=42)
        b = Testbed(seed=42)
        assert np.allclose(a.tx_hardware.params.to_vector(),
                           b.tx_hardware.params.to_vector())
        assert a.vr_from_world.almost_equal(b.vr_from_world)

    def test_different_seeds_differ(self):
        a = Testbed(seed=1)
        b = Testbed(seed=2)
        assert not np.allclose(a.tx_hardware.params.to_vector(),
                               b.tx_hardware.params.to_vector())

    def test_tx_and_rx_units_differ(self, testbed):
        # Manual assembly: "will likely have different values for p0
        # and x0 parameters".
        assert not np.allclose(testbed.tx_hardware.params.to_vector(),
                               testbed.rx_hardware.params.to_vector())

    def test_geometry_options(self):
        bench = Testbed(seed=5, geometry="bench")
        ceiling = Testbed(seed=5, geometry="ceiling")
        assert np.allclose(bench.tx_mirror_world, TX_MIRROR_BENCH)
        assert np.allclose(ceiling.tx_mirror_world, TX_MIRROR_CEILING)

    def test_rejects_unknown_geometry(self):
        with pytest.raises(ValueError):
            Testbed(seed=5, geometry="underwater")

    def test_alternate_design(self):
        bed = Testbed(design=link_25g(), seed=5)
        assert bed.design.sfp.optimal_throughput_gbps == pytest.approx(
            23.5)


class TestAiming:
    def test_tx_rest_beam_points_at_home(self, testbed):
        testbed.tx_hardware.apply(0.0, 0.0)
        beam = Ray(*testbed.tx_assembly.world_beam())
        target = HOME_POSITION + RX_MIRROR_BODY
        # Within a few degrees (mounting tilt error is ~1 degree).
        assert beam.distance_to_point(target) < 0.15

    def test_rx_rest_beam_points_at_tx(self, testbed):
        testbed.rx_hardware.apply(0.0, 0.0)
        beam = Ray(*testbed.rx_assembly.world_beam(testbed.home_pose))
        assert beam.distance_to_point(testbed.tx_mirror_world) < 0.15

    def test_link_range_in_paper_band(self, testbed):
        mirror = testbed.rx_assembly.kspace_to_world(
            testbed.home_pose).apply_point(
                testbed.rx_hardware.params.q2)
        distance = float(np.linalg.norm(
            mirror - testbed.tx_mirror_world))
        assert 1.4 <= distance <= 2.1


class TestHiddenFrames:
    def test_vr_space_is_gravity_aligned(self, testbed):
        # Yaw-only rotation: the z axis maps to itself.
        z = testbed.vr_from_world.apply_direction([0, 0, 1])
        assert np.allclose(z, [0, 0, 1], atol=1e-9)

    def test_x_offset_is_small(self, testbed):
        assert np.linalg.norm(testbed.x_offset.position) < 0.2

    def test_oracle_round_trip(self, testbed):
        # The oracle's TX model in VR space, pulled back to world,
        # matches the true hardware beam.
        oracle = testbed.oracle_system()
        testbed.tx_hardware.apply(0.7, -0.4)
        truth_origin, _ = testbed.tx_assembly.world_beam()
        predicted_vr = oracle.tx_model_vr.beam(0.7, -0.4)
        predicted_origin, _ = testbed.vr_from_world.inverse().apply_ray(
            *predicted_vr)
        # Linear model vs jittery/nonlinear hardware: sub-mm at origin.
        assert np.linalg.norm(np.subtract(predicted_origin,
                                          truth_origin)) < 2e-3


class TestHelpers:
    def test_placement_lands_mirror(self):
        params = canonical_gma(np.radians(1.0))
        target = np.array([1.0, 2.0, 3.0])
        rotation = rotation_matrix([0, 0, 1], 0.5)
        placement = _placement_to(rotation, params.q2, target)
        assert np.allclose(placement.apply_point(params.q2), target)

    def test_perturbed_params_stay_unit(self, rng):
        params = canonical_gma(np.radians(1.0))
        wiggled = _perturbed_params(params, rng, 1e-3,
                                    np.radians(0.5), 0.01)
        for direction in (wiggled.x0, wiggled.n1, wiggled.r1,
                          wiggled.n2, wiggled.r2):
            assert np.linalg.norm(direction) == pytest.approx(1.0)

    def test_perturbed_params_differ_but_close(self, rng):
        params = canonical_gma(np.radians(1.0))
        wiggled = _perturbed_params(params, rng, 1e-3,
                                    np.radians(0.5), 0.01)
        delta = wiggled.to_vector() - params.to_vector()
        assert np.linalg.norm(delta) > 0
        assert np.abs(delta[:3]).max() < 5e-3


class TestInterfaces:
    def test_power_function_probes(self, testbed):
        probe = testbed.power_function(testbed.home_pose)
        power = probe(0.0, 0.0, 0.0, 0.0)
        assert power <= 0.0  # dBm, below the TX power at the least

    def test_apply_command_returns_settle_time(self, testbed,
                                               learned_system):
        from repro.core import point
        command = point(learned_system,
                        testbed.tracker.report(testbed.home_pose))
        settle = testbed.apply_command(command)
        assert settle >= 0.0

    def test_pose_generators_respect_ranges(self, testbed):
        for pose in testbed.random_poses(20, 0.1, np.radians(5)):
            assert np.all(np.abs(pose.position - HOME_POSITION) <= 0.1)
            assert Pose.identity().angular_distance_to(
                Pose(np.zeros(3), pose.orientation)) <= np.radians(9)
