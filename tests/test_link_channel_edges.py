"""Edge-case tests for the FSO channel geometry."""

import numpy as np
import pytest

from repro.core import point
from repro.geometry import Pose, rotation_matrix
from repro.link import NOISE_FLOOR_DBM

from .oracles import lemma_points


def oracle_align(testbed, pose):
    report = testbed.tracker.true_report_transform(pose)
    command = point(testbed.oracle_system(), report)
    testbed.apply_command(command)


class TestChannelEdges:
    def test_rx_behind_tx_gets_no_light(self, testbed):
        pose = testbed.home_pose
        oracle_align(testbed, pose)
        # Move the headset to the far side of the transmitter: the
        # beam cannot reach backwards.
        tx = testbed.tx_mirror_world
        behind = Pose(2 * tx - pose.position - np.array([0, 0, 0.2]),
                      pose.orientation)
        state = testbed.channel.evaluate(behind)
        assert state.received_power_dbm == NOISE_FLOOR_DBM
        assert not state.connected

    def test_power_never_below_noise_floor(self, testbed, rng):
        pose = testbed.home_pose
        oracle_align(testbed, pose)
        for _ in range(10):
            wild = Pose(pose.position + rng.uniform(-1, 1, 3),
                        rotation_matrix(rng.normal(size=3),
                                        rng.uniform(0, 1))
                        @ pose.orientation)
            state = testbed.channel.evaluate(wild)
            assert state.received_power_dbm >= NOISE_FLOOR_DBM

    def test_range_positive_always(self, testbed, rng):
        pose = testbed.home_pose
        oracle_align(testbed, pose)
        for _ in range(5):
            jittered = Pose(pose.position + rng.normal(0, 0.1, 3),
                            pose.orientation)
            assert testbed.channel.evaluate(jittered).range_m > 0

    def test_symmetric_offsets_symmetric_power(self, testbed):
        # The coupling model is even in lateral offset.
        pose = testbed.home_pose
        oracle_align(testbed, pose)
        left = Pose(pose.position + np.array([4e-3, 0, 0]),
                    pose.orientation)
        right = Pose(pose.position - np.array([4e-3, 0, 0]),
                     pose.orientation)
        p_left = testbed.channel.evaluate(left).received_power_dbm
        p_right = testbed.channel.evaluate(right).received_power_dbm
        assert p_left == pytest.approx(p_right, abs=1.5)

    def test_evaluate_is_pure(self, testbed):
        # Evaluating the channel must not mutate any state: two calls
        # in a row agree exactly.
        pose = testbed.home_pose
        oracle_align(testbed, pose)
        a = testbed.channel.evaluate(pose)
        b = testbed.channel.evaluate(pose)
        assert a.received_power_dbm == b.received_power_dbm
        assert a.axis_offset_m == b.axis_offset_m

    def test_lemma_points_error_nonnegative(self, testbed):
        pose = testbed.home_pose
        oracle_align(testbed, pose)
        assert lemma_points(testbed.channel, pose).error >= 0.0
