"""Tests for the vibration overlay."""

import numpy as np
import pytest

from repro.geometry import Pose
from repro.motion import StaticProfile, VibrationOverlay


def overlay(**kwargs):
    defaults = dict(base=StaticProfile(Pose.identity(), 10.0),
                    frequency_hz=10.0,
                    linear_amplitude_m=1e-3,
                    angular_amplitude_rad=2e-3,
                    seed=1)
    defaults.update(kwargs)
    return VibrationOverlay(**defaults)


class TestVibrationOverlay:
    def test_preserves_duration(self):
        assert overlay().duration_s == 10.0

    def test_jitter_bounded_by_amplitude(self):
        o = overlay()
        for t in np.linspace(0, 1, 101):
            pose = o.pose_at(float(t))
            assert np.all(np.abs(pose.position) <= 1e-3 + 1e-12)
            tilt = Pose.identity().angular_distance_to(
                Pose(np.zeros(3), pose.orientation))
            assert tilt <= np.sqrt(3) * 2e-3 + 1e-9

    def test_zero_amplitude_is_identity(self):
        o = overlay(linear_amplitude_m=0.0, angular_amplitude_rad=0.0)
        assert o.pose_at(0.37).almost_equal(Pose.identity())

    def test_periodicity(self):
        o = overlay(frequency_hz=10.0)
        a = o.pose_at(0.123)
        b = o.pose_at(0.123 + 0.1)  # one full period later
        assert a.almost_equal(b, tol=1e-9)

    def test_deterministic_per_seed(self):
        assert overlay(seed=5).pose_at(0.2).almost_equal(
            overlay(seed=5).pose_at(0.2))
        assert not overlay(seed=5).pose_at(0.2).almost_equal(
            overlay(seed=6).pose_at(0.2))

    def test_rides_on_base_motion(self):
        base = StaticProfile(Pose([1.0, 2.0, 3.0], np.eye(3)), 10.0)
        o = overlay(base=base)
        assert np.linalg.norm(o.pose_at(0.0).position
                              - [1.0, 2.0, 3.0]) < 2e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            overlay(frequency_hz=0.0)
        with pytest.raises(ValueError):
            overlay(linear_amplitude_m=-1.0)
