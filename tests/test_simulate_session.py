"""Integration tests for the live prototype session (Section 5.3)."""

import numpy as np
import pytest

from repro.motion import (
    LinearRail,
    RotationStage,
    StaticProfile,
    StrokeSchedule,
)
from repro.core import point
from repro.galvo import CoverageError
from repro.net import ThroughputWindow
from repro.simulate import PrototypeSession, Testbed, surviving_speed_threshold
from repro.simulate import session as session_module


@pytest.fixture(scope="module")
def session(testbed, learned_system):
    return PrototypeSession(testbed, learned_system)


class TestStaticSession:
    def test_static_link_stays_up(self, session, testbed):
        profile = StaticProfile(testbed.home_pose, duration_s=2.0)
        result = session.run(profile)
        assert result.uptime_fraction == 1.0

    def test_static_throughput_optimal(self, session, testbed):
        profile = StaticProfile(testbed.home_pose, duration_s=2.0)
        result = session.run(profile)
        optimal = testbed.design.sfp.optimal_throughput_gbps
        assert np.all(result.throughputs_gbps()
                      >= 0.99 * optimal)

    def test_pointing_runs_at_tracker_rate(self, session, testbed):
        result = session.run(StaticProfile(testbed.home_pose, 2.0))
        # ~80 reports per second for 2 s.
        assert 130 <= result.pointing_calls <= 190

    def test_power_stays_near_peak(self, session, testbed):
        result = session.run(StaticProfile(testbed.home_pose, 1.0))
        assert result.power_dbm.min() > \
            testbed.design.sfp.rx_sensitivity_dbm


class TestSlowMotionSession:
    def test_slow_linear_motion_keeps_optimal(self, session, testbed):
        rail = LinearRail(axis=[1, 0, 0], length_m=0.2)
        profile = rail.stroke_profile(testbed.home_pose, [0.10])
        result = session.run(profile)
        assert result.uptime_fraction == 1.0

    def test_slow_angular_motion_keeps_optimal(self, session, testbed):
        stage = RotationStage(axis=[0, 0, 1],
                              range_rad=np.radians(12))
        profile = stage.stroke_profile(testbed.home_pose,
                                       [np.radians(6)])
        result = session.run(profile)
        assert result.uptime_fraction == 1.0


class TestFastMotionSession:
    def test_very_fast_rotation_drops_link(self, session, testbed):
        stage = RotationStage(axis=[0, 0, 1],
                              range_rad=np.radians(16))
        profile = stage.stroke_profile(testbed.home_pose,
                                       [np.radians(60)])
        result = session.run(profile)
        assert result.uptime_fraction < 1.0

    def test_relock_outage_visible(self, session, testbed):
        # After a drop, the SFP re-lock keeps the link down for
        # seconds even though motion stopped.
        stage = RotationStage(axis=[0, 0, 1],
                              range_rad=np.radians(16))
        profile = stage.stroke_profile(testbed.home_pose,
                                       [np.radians(80)], rest_s=1.5)
        result = session.run(profile)
        down = ~result.link_up
        if down.any():
            # Longest outage should span at least the relock delay.
            changes = np.flatnonzero(np.diff(down.astype(int)))
            spans = np.diff(np.concatenate([[0], changes,
                                            [len(down)]]))
            assert spans.max() >= int(
                testbed.design.sfp.relock_delay_s / 1e-3 * 0.8)


class TestCoverageFailureAccounting:
    def test_counted_separately_and_survived(self, monkeypatch):
        testbed = Testbed(seed=3)
        session = PrototypeSession(testbed, testbed.oracle_system())
        profile = StaticProfile(testbed.home_pose, duration_s=0.5)
        calls = []

        def tripwire(system, report, initial):
            # Call 1 solves the first report before the loop; the
            # loop's first report (call 2) settles outside the cone.
            calls.append(report)
            if len(calls) == 2:
                raise CoverageError("out-of-cone command")
            return point(system, report, initial=initial)

        monkeypatch.setattr(session_module, "point", tripwire)
        result = session.run(profile)
        assert len(calls) > 2
        assert result.coverage_failures == 1
        # The run carried on: the loop must catch exactly the typed
        # error, not swallow it as a generic pointing failure.
        assert result.pointing_failures == 0
        assert result.uptime_fraction > 0.9


class TestThresholdReadout:
    def test_threshold_zero_if_slowest_fails(self):
        schedule = StrokeSchedule(extent=0.3, speeds=[0.1, 0.2])
        windows = [ThroughputWindow(center_s=0.5, throughput_gbps=0.0,
                                    uptime_fraction=0.0)]
        assert surviving_speed_threshold(schedule, windows, 9.4) == 0.0

    def test_threshold_top_speed_if_all_pass(self):
        schedule = StrokeSchedule(extent=0.3, speeds=[0.1, 0.2])
        windows = [ThroughputWindow(center_s=t, throughput_gbps=9.4,
                                    uptime_fraction=1.0)
                   for t in np.arange(0.025, schedule.duration_s, 0.05)]
        assert surviving_speed_threshold(schedule, windows, 9.4) == 0.2

    def test_threshold_stops_at_first_failure(self):
        schedule = StrokeSchedule(extent=0.3, speeds=[0.1, 0.2, 0.3],
                                  rest_s=0.25)
        # Fail only windows during the 0.3 m/s strokes (which start
        # after the first four strokes + rests).
        fail_after = 2 * (0.3 / 0.1 + 0.25) + 2 * (0.3 / 0.2 + 0.25)
        windows = [ThroughputWindow(
            center_s=t,
            throughput_gbps=0.0 if t > fail_after else 9.4,
            uptime_fraction=1.0)
            for t in np.arange(0.025, schedule.duration_s, 0.05)]
        assert surviving_speed_threshold(schedule, windows, 9.4) == 0.2

    def test_requires_windows(self):
        schedule = StrokeSchedule(extent=0.3, speeds=[0.1])
        with pytest.raises(ValueError):
            surviving_speed_threshold(schedule, [], 9.4)
