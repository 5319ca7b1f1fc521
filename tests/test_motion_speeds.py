"""Unit tests for speed measurement and CDFs."""

import numpy as np
import pytest

from repro.geometry import Pose
from repro.motion import (
    LinearRail,
    cdf,
    generate_trace,
    measure_profile,
    measure_trace,
    percentile,
)


class TestMeasureProfile:
    def test_constant_speed_stroke(self):
        rail = LinearRail(axis=[1, 0, 0], length_m=0.4)
        profile = rail.stroke_profile(Pose.identity(), [0.2])
        series = measure_profile(profile, window_s=0.05)
        moving = series.linear_m_s[series.linear_m_s > 0.01]
        assert np.median(moving) == pytest.approx(0.2, rel=0.05)

    def test_angular_zero_for_pure_linear(self):
        rail = LinearRail(axis=[1, 0, 0])
        profile = rail.stroke_profile(Pose.identity(), [0.2])
        series = measure_profile(profile, window_s=0.05)
        assert series.angular_rad_s.max() == pytest.approx(0.0, abs=1e-9)

    def test_window_validation(self):
        rail = LinearRail(axis=[1, 0, 0])
        profile = rail.stroke_profile(Pose.identity(), [0.2])
        with pytest.raises(ValueError):
            measure_profile(profile, window_s=0.0)
        with pytest.raises(ValueError):
            measure_profile(profile, window_s=10.0, duration_s=1.0)

    def test_times_are_window_centers(self):
        rail = LinearRail(axis=[1, 0, 0])
        profile = rail.stroke_profile(Pose.identity(), [0.4])
        series = measure_profile(profile, window_s=0.1, duration_s=1.0)
        assert series.times_s[0] == pytest.approx(0.05)


class TestMeasureTrace:
    def test_window_aggregation(self):
        trace = generate_trace(0, 0, duration_s=10.0)
        series = measure_trace(trace, window_s=0.05)
        # 10 s / 50 ms = 200 windows.
        assert len(series.linear_m_s) == 200

    def test_deg_conversion(self):
        trace = generate_trace(0, 0, duration_s=5.0)
        series = measure_trace(trace)
        assert np.allclose(series.angular_deg_s,
                           np.degrees(series.angular_rad_s))

    def test_too_short_trace_rejected(self):
        trace = generate_trace(0, 0, duration_s=0.02)
        with pytest.raises(ValueError):
            measure_trace(trace, window_s=1.0)


class TestCdf:
    def test_sorted_output(self):
        values, fractions = cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert fractions[-1] == pytest.approx(1.0)

    def test_fractions_monotone(self):
        _, fractions = cdf(np.random.default_rng(0).normal(size=100))
        assert np.all(np.diff(fractions) > 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf([])

    def test_percentile(self):
        assert percentile(range(101), 95) == pytest.approx(95.0)
