"""Unit tests for the hand-held motion generator."""

import numpy as np
import pytest

from repro.geometry import Pose
from repro.motion import HandheldProfile, measure_profile


def profile(**kwargs):
    defaults = dict(base_pose=Pose([0, 0, 1], np.eye(3)),
                    peak_linear_m_s=0.3,
                    peak_angular_rad_s=np.radians(20),
                    duration_s=20.0, seed=4)
    defaults.update(kwargs)
    return HandheldProfile(**defaults)


class TestHandheldProfile:
    def test_starts_near_base(self):
        p = profile()
        start = p.pose_at(0.0)
        assert np.linalg.norm(start.position - [0, 0, 1]) < 0.2

    def test_deterministic_for_seed(self):
        a = profile(seed=9)
        b = profile(seed=9)
        for t in (0.0, 3.3, 17.1):
            assert a.pose_at(t).almost_equal(b.pose_at(t))

    def test_different_seeds_differ(self):
        a = profile(seed=1).pose_at(5.0)
        b = profile(seed=2).pose_at(5.0)
        assert not a.almost_equal(b)

    def test_is_smooth(self):
        p = profile()
        dt = 1e-3
        prev = p.pose_at(10.0)
        cur = p.pose_at(10.0 + dt)
        # At most peak speeds times dt (plus slack).
        assert prev.linear_distance_to(cur) < 2 * 0.3 * dt + 1e-9
        assert prev.angular_distance_to(cur) < 2 * np.radians(20) * dt \
            + 1e-9

    def test_speed_ramps_up(self):
        p = profile(ramp_start_fraction=0.1)
        early = measure_profile(p, window_s=0.05, duration_s=3.0)
        # Sample a late window by shifting: measure whole run, compare
        # first and last quarters.
        full = measure_profile(p, window_s=0.05)
        n = len(full.linear_m_s)
        early_mean = full.linear_m_s[: n // 4].mean()
        late_mean = full.linear_m_s[-n // 4:].mean()
        assert late_mean > early_mean

    def test_speeds_bounded_by_peaks(self):
        p = profile()
        series = measure_profile(p, window_s=0.05)
        assert series.linear_m_s.max() <= 0.3 * 1.05
        assert series.angular_rad_s.max() <= np.radians(20) * 1.05

    def test_mixed_motion_present(self):
        # Both linear and angular components move simultaneously.
        p = profile()
        series = measure_profile(p, window_s=0.05)
        both = (series.linear_m_s > 0.02) & (
            series.angular_rad_s > np.radians(2))
        assert both.mean() > 0.3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            profile(peak_linear_m_s=-1.0)
        with pytest.raises(ValueError):
            profile(ramp_start_fraction=1.5)
