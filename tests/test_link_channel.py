"""Unit tests for the FSO channel physics (uses the shared testbed)."""

import numpy as np
import pytest

from repro.core import point
from repro.geometry import Pose, rotation_matrix
from repro.link import NOISE_FLOOR_DBM

from .oracles import lemma_points


def align_perfectly(testbed, pose):
    """Noise-free oracle alignment at a pose."""
    report = testbed.tracker.true_report_transform(pose)
    command = point(testbed.oracle_system(), report)
    testbed.apply_command(command)
    return command


class TestEvaluate:
    def test_aligned_power_near_peak(self, testbed):
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        state = testbed.channel.evaluate(pose)
        peak = testbed.design.peak_power_dbm(state.range_m)
        # Oracle alignment through real (imperfect) hardware loses a
        # few dB at most.
        assert state.received_power_dbm > peak - 6.0
        assert state.connected

    def test_range_near_link_length(self, testbed):
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        state = testbed.channel.evaluate(pose)
        assert 1.4 <= state.range_m <= 2.1

    def test_misaligned_rx_loses_power(self, testbed):
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        aligned_power = testbed.channel.evaluate(pose).received_power_dbm
        turned = Pose(pose.position,
                      rotation_matrix([0, 0, 1], 0.02) @ pose.orientation)
        assert testbed.channel.evaluate(
            turned).received_power_dbm < aligned_power - 5.0

    def test_small_rotation_changes_incidence_linearly(self, testbed):
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        base = testbed.channel.evaluate(pose).incidence_angle_rad
        for angle in (2e-3, 4e-3):
            turned = Pose(pose.position, rotation_matrix(
                [0, 0, 1], angle) @ pose.orientation)
            inc = testbed.channel.evaluate(turned).incidence_angle_rad
            assert inc == pytest.approx(base + angle, abs=1.2e-3)

    def test_translation_changes_incidence_for_diverging_beam(self,
                                                              testbed):
        # The wavefront-curvature effect: translating across the cone
        # rotates the arrival direction by ~delta / range.
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        base = testbed.channel.evaluate(pose).incidence_angle_rad
        shifted = Pose(pose.position + np.array([6e-3, 0, 0]),
                       pose.orientation)
        state = testbed.channel.evaluate(shifted)
        expected_rotation = 6e-3 / state.range_m
        assert state.incidence_angle_rad == pytest.approx(
            base + expected_rotation, abs=1.5e-3)

    def test_translation_changes_axis_offset(self, testbed):
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        shifted = Pose(pose.position + np.array([5e-3, 0, 0]),
                       pose.orientation)
        state = testbed.channel.evaluate(shifted)
        assert state.axis_offset_m == pytest.approx(5e-3, abs=1.5e-3)

    def test_power_floored_at_noise_floor(self, testbed):
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        far = Pose(pose.position + np.array([0.5, 0, 0]),
                   pose.orientation)
        state = testbed.channel.evaluate(far)
        assert state.received_power_dbm == NOISE_FLOOR_DBM
        assert not state.connected


class TestLemmaPoints:
    def test_aligned_points_coincide(self, testbed):
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        points = lemma_points(testbed.channel, pose)
        # Oracle alignment through imperfect hardware: coincidence to
        # within a few millimeters.
        assert points.error < 8e-3

    def test_misalignment_grows_error(self, testbed):
        pose = testbed.home_pose
        align_perfectly(testbed, pose)
        base = lemma_points(testbed.channel, pose).error
        turned = Pose(pose.position,
                      rotation_matrix([1, 0, 0], 0.01) @ pose.orientation)
        assert lemma_points(testbed.channel, turned).error > base
