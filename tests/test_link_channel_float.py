"""The float channel against the Ray-based reference.

:meth:`repro.link.FsoChannel.evaluate` runs on plain float triples; it
must agree with :func:`tests.oracles.reference_evaluate` (world-frame
oracle :class:`tests.oracles.Ray` objects and numpy 3-vectors) to 1e-12 on
every :class:`repro.link.AlignmentState` field, ``connected`` included.

The one widening is ``acos``'s conditioning.  Near perfect alignment
it turns the last-bit rounding of a cosine, present in both paths,
into up to ~1e-10 rad of incidence (and, through the coupling
roll-off, ~1e-9 dB of power), so those two fields are compared to
1e-12 plus that propagated rounding.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.core import point
from repro.geometry import Pose
from repro.link import NOISE_FLOOR_DBM, FsoChannel
from repro.link.channel import MIN_RANGE_M
from repro.link.design import link_10g_collimated
from repro.optics import GaussianBeam
from repro.optics.coupling import EXCESS_DB_AT_WIDTH

from .oracles import reference_evaluate, world_beam

TOL = 1e-12
#: A few ulp of a unit cosine.
COS_EPS = 8 * 2.0 ** -53
POSES = 12

volts = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
nudges = st.floats(min_value=-0.05, max_value=0.05,
                   allow_nan=False, allow_infinity=False)
pose_index = st.integers(min_value=0, max_value=POSES - 1)


@pytest.fixture(scope="module")
def bed():
    """A private testbed: these tests steer its mirrors freely."""
    return simulate.Testbed(seed=5)


@pytest.fixture(scope="module")
def poses(bed):
    return bed.evaluation_poses(POSES)


@pytest.fixture(scope="module")
def commands(bed, poses):
    """The oracle's pointing command for each evaluation pose."""
    system = bed.oracle_system()
    return [point(system, bed.tracker.true_report_transform(pose))
            for pose in poses]


def incidence_tolerance(angle_rad):
    """How far two correct ``acos`` evaluations of ``angle_rad`` differ.

    Both paths take ``acos`` of a cosine that carries a few ulp of
    rounding; near perfect alignment ``acos`` magnifies that by
    ``1 / sin(angle)`` (down to ``sqrt(2 eps)`` at zero).
    """
    return TOL + COS_EPS / max(math.sin(angle_rad), math.sqrt(COS_EPS))


def power_tolerance(channel, want, d_incidence):
    """TOL in dBm, plus what the geometry tolerances move the power by."""
    design = channel.design
    lateral_slope = (2 * EXCESS_DB_AT_WIDTH * want.axis_offset_m
                     / design.lateral_width_m(want.range_m) ** 2)
    angular_slope = (2 * EXCESS_DB_AT_WIDTH * want.incidence_angle_rad
                     / design.angular_width_rad(want.range_m) ** 2)
    return (TOL * (1 + abs(want.received_power_dbm) + lateral_slope)
            + angular_slope * d_incidence)


def assert_same_state(channel, pose):
    state = channel.evaluate(pose)
    want = reference_evaluate(channel, pose)
    assert state.connected == want.connected
    assert state.range_m == pytest.approx(want.range_m, rel=TOL, abs=TOL)
    assert state.axis_offset_m == pytest.approx(want.axis_offset_m,
                                                rel=TOL, abs=TOL)
    d_incidence = incidence_tolerance(want.incidence_angle_rad)
    assert abs(state.incidence_angle_rad
               - want.incidence_angle_rad) <= d_incidence
    assert abs(state.received_power_dbm - want.received_power_dbm) <= \
        power_tolerance(channel, want, d_incidence)
    return state


class TestAgainstRayReference:
    @settings(max_examples=60, deadline=None)
    @given(index=pose_index, v_tx1=volts, v_tx2=volts, v_rx1=volts,
           v_rx2=volts)
    def test_random_voltages(self, bed, poses, index, v_tx1, v_tx2,
                             v_rx1, v_rx2):
        bed.tx_hardware.apply(v_tx1, v_tx2)
        bed.rx_hardware.apply(v_rx1, v_rx2)
        assert_same_state(bed.channel, poses[index])

    @settings(max_examples=60, deadline=None)
    @given(index=pose_index, d_tx1=nudges, d_tx2=nudges, d_rx1=nudges,
           d_rx2=nudges)
    def test_near_alignment(self, bed, poses, commands, index, d_tx1,
                            d_tx2, d_rx1, d_rx2):
        command = commands[index]
        bed.tx_hardware.apply(command.v_tx1 + d_tx1, command.v_tx2 + d_tx2)
        bed.rx_hardware.apply(command.v_rx1 + d_rx1, command.v_rx2 + d_rx2)
        assert_same_state(bed.channel, poses[index])

    def test_aligned_states_connect(self, bed, poses, commands):
        connected = 0
        for pose, command in zip(poses, commands):
            bed.apply_command(command)
            connected += assert_same_state(bed.channel, pose).connected
        assert connected == len(poses)


class TestBranches:
    @pytest.mark.parametrize("distance_m", [0.5e-3, 0.5])
    def test_receiver_behind_tx_is_at_noise_floor(self, bed, poses,
                                                  commands, distance_m):
        # Slide the aligned headset along the TX beam line to just in
        # front of, then just behind, the transmitter: the same offset
        # and incidence, but light only in front.  The collimated
        # design keeps its peak power at millimetre range.
        channel = FsoChannel(link_10g_collimated(), bed.channel.tx,
                             bed.channel.rx)
        bed.apply_command(commands[0])
        tx_beam = world_beam(channel.tx)
        p_r = world_beam(channel.rx, poses[0]).origin
        along = float(np.dot(p_r - tx_beam.origin, tx_beam.direction))

        def slid_to(along_m):
            return Pose(poses[0].position
                        + (along_m - along) * tx_beam.direction,
                        poses[0].orientation)

        assert assert_same_state(channel, slid_to(distance_m)).connected
        state = assert_same_state(channel, slid_to(-distance_m))
        assert state.received_power_dbm == NOISE_FLOOR_DBM
        assert not state.connected

    def test_infinite_curvature(self, bed, poses, commands):
        collimated = link_10g_collimated()
        design = dataclasses.replace(collimated, beam=GaussianBeam(
            collimated.beam.waist_diameter_m, 0.0))
        assert design.beam.curvature_radius_m(1.0) == float("inf")
        channel = FsoChannel(design, bed.channel.tx, bed.channel.rx)
        for pose, command in zip(poses, commands):
            bed.apply_command(command)
            assert_same_state(channel, pose)

    @pytest.mark.parametrize("along_m", [0.4e-3, -0.4e-3])
    def test_min_range_clamp(self, bed, commands, along_m):
        # Place the headset so the RX beam origin sits a fraction of
        # MIN_RANGE_M from the TX origin, along the TX beam.
        bed.apply_command(commands[0])
        tx_beam = world_beam(bed.channel.tx)
        target = tx_beam.point_at(along_m) + np.array([2e-4, 0.0, 0.0])
        orientation = bed.home_pose.orientation
        in_body = bed.channel.rx.kspace_to_body.apply_point(
            bed.rx_hardware.output_beam()[0])
        pose = Pose(target - orientation @ in_body, orientation)
        state = assert_same_state(bed.channel, pose)
        assert state.range_m == MIN_RANGE_M
        if along_m < 0:
            assert state.received_power_dbm == NOISE_FLOOR_DBM
