"""Property-based tests for the extension subsystems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Pose
from repro.motion import StaticProfile, VibrationOverlay
from repro.plan import CoverageConstraints, CoveragePlan, Room
from repro.reporting import sparkline
from repro.stream import VideoFormat, stream_over_link


class TestStreamProperties:
    @settings(max_examples=20, deadline=None)
    @given(up_fraction=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=99))
    def test_frame_accounting_conserved(self, up_fraction, seed):
        rng = np.random.default_rng(seed)
        link = rng.random(2000) < up_fraction
        video = VideoFormat("t", 640, 480, 30.0, 24)
        report = stream_over_link(video, link, 1e-3, 1.0)
        assert 0 <= report.late_frames <= report.frames
        assert 0.0 <= report.late_fraction <= 1.0
        assert report.longest_late_burst() <= report.frames

    @settings(max_examples=20, deadline=None)
    @given(capacity=st.floats(min_value=0.5, max_value=50.0))
    def test_more_capacity_never_hurts(self, capacity):
        link = np.ones(1500, dtype=bool)
        video = VideoFormat("t", 1920, 1080, 30.0, 24)
        lo = stream_over_link(video, link, 1e-3, capacity)
        hi = stream_over_link(video, link, 1e-3, capacity * 2)
        assert hi.late_fraction <= lo.late_fraction + 1e-9


class TestPlanProperties:
    @settings(max_examples=20, deadline=None)
    @given(width=st.floats(min_value=1.0, max_value=4.0),
           depth=st.floats(min_value=1.0, max_value=4.0))
    def test_more_txs_more_coverage(self, width, depth):
        room = Room(width_m=width, depth_m=depth)
        constraints = CoverageConstraints()
        center = (width / 2, depth / 2)
        corner = (0.3, 0.3)
        one = CoveragePlan(room, constraints, [center])
        two = CoveragePlan(room, constraints, [center, corner])
        assert two.coverage_fraction(0.4) >= \
            one.coverage_fraction(0.4) - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(x=st.floats(min_value=0.0, max_value=3.0),
           y=st.floats(min_value=0.0, max_value=3.0))
    def test_coverage_fraction_in_unit_interval(self, x, y):
        room = Room(width_m=3.0, depth_m=3.0)
        plan = CoveragePlan(room, CoverageConstraints(), [(x, y)])
        fraction = plan.coverage_fraction(0.4)
        assert 0.0 <= fraction <= 1.0


class TestVibrationProperties:
    @settings(max_examples=20, deadline=None)
    @given(freq=st.floats(min_value=0.5, max_value=300.0),
           amp=st.floats(min_value=0.0, max_value=5e-3),
           t=st.floats(min_value=0.0, max_value=5.0))
    def test_jitter_amplitude_bound(self, freq, amp, t):
        overlay = VibrationOverlay(
            StaticProfile(Pose.identity(), 10.0),
            frequency_hz=freq, linear_amplitude_m=amp)
        pose = overlay.pose_at(t)
        assert np.all(np.abs(pose.position) <= amp + 1e-12)


class TestSparklineProperties:
    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=1, max_size=300),
           width=st.integers(min_value=1, max_value=100))
    def test_output_length_bounded(self, values, width):
        line = sparkline(values, width=width)
        assert 1 <= len(line) <= width
        assert all(c in " .:-=+*#" for c in line)
