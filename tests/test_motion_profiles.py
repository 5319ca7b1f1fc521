"""Unit tests for motion profiles, the rail, and the rotation stage."""

import numpy as np
import pytest

from repro.geometry import Pose
from repro.motion import (
    AngularStrokeProfile,
    LinearRail,
    LinearStrokeProfile,
    RotationStage,
    StaticProfile,
    StrokeSchedule,
)


def speed_at(schedule, t_s, h=1e-6):
    """Stroke speed at ``t_s``: a central difference of the offset."""
    return abs(schedule.offset_at(t_s + h)
               - schedule.offset_at(t_s - h)) / (2.0 * h)


class TestStrokeSchedule:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            StrokeSchedule(extent=0.0, speeds=[0.1])
        with pytest.raises(ValueError):
            StrokeSchedule(extent=0.3, speeds=[])
        with pytest.raises(ValueError):
            StrokeSchedule(extent=0.3, speeds=[0.1, -0.2])

    def test_duration_accounts_for_strokes_and_rests(self):
        schedule = StrokeSchedule(extent=0.4, speeds=[0.2], rest_s=0.25)
        # Two strokes of 2 s each plus two rests.
        assert schedule.duration_s == pytest.approx(4.5)

    def test_offset_starts_at_zero(self):
        schedule = StrokeSchedule(extent=0.4, speeds=[0.2])
        assert schedule.offset_at(0.0) == 0.0

    def test_offset_reaches_far_end(self):
        schedule = StrokeSchedule(extent=0.4, speeds=[0.2], rest_s=0.25)
        assert schedule.offset_at(2.0) == pytest.approx(0.4)

    def test_offset_returns(self):
        schedule = StrokeSchedule(extent=0.4, speeds=[0.2], rest_s=0.25)
        assert schedule.offset_at(4.25) == pytest.approx(0.0)

    def test_rest_holds_position(self):
        schedule = StrokeSchedule(extent=0.4, speeds=[0.2], rest_s=0.25)
        assert schedule.offset_at(2.1) == pytest.approx(0.4)

    def test_speed_at(self):
        schedule = StrokeSchedule(extent=0.4, speeds=[0.2, 0.4],
                                  rest_s=0.25)
        assert speed_at(schedule, 1.0) == pytest.approx(0.2)
        assert speed_at(schedule, 2.1) == 0.0  # resting
        # Fourth segment (second speed, first stroke) starts at 4.5 s.
        assert speed_at(schedule, 4.6) == pytest.approx(0.4)

    def test_speeds_ramp_in_listed_order(self):
        schedule = StrokeSchedule(extent=0.2, speeds=[0.1, 0.3])
        seen = []
        t = 0.025  # off the segment boundaries
        while t < schedule.duration_s:
            s = round(speed_at(schedule, t), 6)
            if s > 0 and (not seen or seen[-1] != s):
                seen.append(s)
            t += 0.05
        assert seen == [0.1, 0.3]

    def test_implied_speed_matches_offsets(self):
        schedule = StrokeSchedule(extent=0.4, speeds=[0.25], rest_s=0.3)
        d = (schedule.offset_at(1.0) - schedule.offset_at(0.8)) / 0.2
        assert d == pytest.approx(0.25)


class TestStaticProfile:
    def test_never_moves(self):
        pose = Pose([1, 2, 3], np.eye(3))
        profile = StaticProfile(pose)
        for t in (0.0, 1.0, 59.9):
            assert profile.pose_at(t).almost_equal(pose)


class TestLinearRail:
    def test_stroke_profile_moves_along_axis_only(self):
        rail = LinearRail(axis=[1, 0, 0], length_m=0.3)
        center = Pose([0, 0, 1], np.eye(3))
        profile = rail.stroke_profile(center, [0.1])
        a = profile.pose_at(0.0)
        b = profile.pose_at(1.5)  # mid-stroke
        delta = b.position - a.position
        assert delta[1] == pytest.approx(0.0, abs=1e-12)
        assert delta[2] == pytest.approx(0.0, abs=1e-12)
        assert delta[0] > 0

    def test_orientation_never_changes(self):
        rail = LinearRail(axis=[0, 1, 0])
        profile = rail.stroke_profile(Pose.identity(), [0.2])
        for t in np.linspace(0, profile.duration_s, 7):
            assert np.allclose(profile.pose_at(float(t)).orientation,
                               np.eye(3))

    def test_center_is_midpoint_of_travel(self):
        rail = LinearRail(axis=[1, 0, 0], length_m=0.4)
        center = Pose([5, 0, 0], np.eye(3))
        profile = rail.stroke_profile(center, [0.4])
        start = profile.pose_at(0.0).position
        end = profile.pose_at(0.999).position  # just before far end
        assert start[0] == pytest.approx(4.8)
        assert end[0] <= 5.2 + 1e-9

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            LinearRail(axis=[1, 0, 0], length_m=0.0)


class TestRotationStage:
    def test_position_never_changes(self):
        stage = RotationStage(axis=[0, 0, 1])
        profile = stage.stroke_profile(Pose([1, 2, 3], np.eye(3)),
                                       [np.radians(10)])
        for t in np.linspace(0, profile.duration_s, 7):
            assert np.allclose(profile.pose_at(float(t)).position,
                               [1, 2, 3])

    def test_sweep_is_centered(self):
        stage = RotationStage(axis=[0, 0, 1], range_rad=np.radians(20))
        base = Pose.identity()
        profile = stage.stroke_profile(base, [np.radians(10)])
        start = profile.pose_at(0.0)
        assert base.angular_distance_to(start) == pytest.approx(
            np.radians(10), rel=1e-6)

    def test_angular_speed_matches_schedule(self):
        stage = RotationStage(axis=[0, 0, 1], range_rad=np.radians(20))
        profile = stage.stroke_profile(Pose.identity(), [np.radians(8)])
        a = profile.pose_at(1.0)
        b = profile.pose_at(1.2)
        rate = a.angular_distance_to(b) / 0.2
        assert rate == pytest.approx(np.radians(8), rel=1e-6)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            RotationStage(axis=[0, 0, 1], range_rad=0.0)
