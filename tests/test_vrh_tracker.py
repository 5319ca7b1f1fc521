"""Unit tests for repro.vrh.tracker (VRH-T)."""

import numpy as np
import pytest

from repro import constants
from repro.geometry import Pose, euler_to_matrix, rotation_matrix
from repro.vrh import VrhTracker


def make_tracker(rng, location_noise=None, orientation_noise=None):
    vr = Pose(np.array([1.0, -0.5, 0.2]), rotation_matrix([0, 0, 1], 0.4))
    x = Pose(np.array([0.02, -0.03, 0.05]), rotation_matrix([1, 0, 0], 0.1))
    kwargs = {}
    if location_noise is not None:
        kwargs["location_noise_m"] = location_noise
    if orientation_noise is not None:
        kwargs["orientation_noise_rad"] = orientation_noise
    return VrhTracker(vr, x, rng=rng, **kwargs)


class TestReportContent:
    def test_noise_free_report_is_v_w_x(self, rng):
        tracker = make_tracker(rng, location_noise=0.0,
                               orientation_noise=0.0)
        pose = Pose([0.3, 0.2, 1.1], euler_to_matrix(0.05, -0.1, 0.2))
        report = tracker.report(pose)
        expected = tracker.vr_from_world.compose(pose).compose(
            tracker.x_offset)
        assert np.allclose(report.position, expected.position)
        assert np.allclose(report.orientation, expected.orientation)

    def test_report_is_not_world_pose(self, rng):
        # The whole point: the reported frame is unknown/different.
        tracker = make_tracker(rng, location_noise=0.0,
                               orientation_noise=0.0)
        pose = Pose.identity()
        report = tracker.report(pose)
        assert not np.allclose(report.position, pose.position)

    def test_noise_perturbs_reports(self, rng):
        tracker = make_tracker(rng)
        pose = Pose.identity()
        a = tracker.report(pose)
        b = tracker.report(pose)
        assert not np.allclose(a.position, b.position)

    def test_stationary_noise_within_paper_bounds(self, rng):
        # Over many reports of a stationary headset, the location
        # scatter stays at the ~1.79 mm / 0.41 mrad scale of Section 5.2.
        tracker = make_tracker(rng)
        pose = Pose.identity()
        reports = [tracker.report(pose) for _ in range(300)]
        positions = np.array([r.position for r in reports])
        spread = np.linalg.norm(positions - positions.mean(axis=0),
                                axis=1)
        assert spread.max() < 2 * constants.TRACKER_LOCATION_NOISE_MAX_M

    def test_rejects_negative_noise(self, rng):
        with pytest.raises(ValueError):
            make_tracker(rng, location_noise=-1.0)

    def test_orientation_report_is_rotation(self, rng):
        tracker = make_tracker(rng)
        report = tracker.report(Pose.identity())
        # Pose construction validates the matrix; reaching here is the
        # assertion, but double-check determinant anyway.
        assert np.linalg.det(report.orientation) == pytest.approx(1.0)


class TestReportTiming:
    def test_periods_in_normal_band(self, rng):
        tracker = make_tracker(rng)
        periods = [tracker.next_period_s() for _ in range(2000)]
        normal = [p for p in periods if p <= 0.013]
        slow = [p for p in periods if p >= 0.014]
        assert len(normal) + len(slow) == len(periods)
        assert all(p >= 0.012 for p in normal)
        assert all(p <= 0.015 for p in slow)

    def test_slow_fraction_near_paper_value(self, rng):
        tracker = make_tracker(rng)
        periods = np.array([tracker.next_period_s() for _ in range(20000)])
        slow_fraction = np.mean(periods >= 0.014)
        assert 0.003 <= slow_fraction <= 0.012  # 0.7 % nominal

    def test_report_times_cover_duration(self, rng):
        tracker = make_tracker(rng)
        times = np.cumsum([tracker.next_period_s() for _ in range(100)])
        reports = 1 + int(np.sum(times <= 1.0))  # the first at t = 0
        assert 70 <= reports <= 90  # ~80 reports per second
