"""Tests for the probe/feedback TP baseline."""

import numpy as np
import pytest

from repro.baselines import ProbeTracker
from repro.baselines.probe_tp import PROBE_LATENCY_S
from repro.motion import RotationStage, StaticProfile
from repro.simulate import Testbed


@pytest.fixture(scope="module")
def probe_bed():
    return Testbed(seed=3)


class TestProbeTracker:
    def test_static_stays_connected(self, probe_bed):
        tracker = ProbeTracker(probe_bed)
        profile = StaticProfile(probe_bed.home_pose, duration_s=1.0)
        result = tracker.run(profile)
        assert result.uptime_fraction == 1.0

    def test_dither_costs_power_even_when_still(self, probe_bed):
        # The probing itself keeps the link a few dB off peak -- the
        # hidden tax of feedback-based TP.
        tracker = ProbeTracker(probe_bed)
        profile = StaticProfile(probe_bed.home_pose, duration_s=1.0)
        result = tracker.run(profile)
        peak = probe_bed.design.peak_power_dbm(1.75)
        assert result.power_dbm.min() < peak - 0.5

    def test_tracks_slow_rotation(self, probe_bed):
        stage = RotationStage(axis=[0, 0, 1], range_rad=np.radians(10))
        profile = stage.stroke_profile(probe_bed.home_pose,
                                       [np.radians(4.0)])
        result = ProbeTracker(probe_bed).run(profile,
                                             duration_s=4.0)
        assert result.uptime_fraction == 1.0

    def test_loses_fast_rotation_cyclops_survives(self, probe_bed,
                                                  learned_system,
                                                  testbed):
        # At 12 deg/s the probe tracker drops while the learned
        # pointer (tested elsewhere at 16 deg/s) is still optimal.
        stage = RotationStage(axis=[0, 0, 1], range_rad=np.radians(14))
        profile = stage.stroke_profile(probe_bed.home_pose,
                                       [np.radians(12.0)])
        result = ProbeTracker(probe_bed).run(profile, duration_s=5.0)
        assert result.uptime_fraction < 0.9

    def test_probe_counter(self, probe_bed):
        tracker = ProbeTracker(probe_bed)
        profile = StaticProfile(probe_bed.home_pose, duration_s=0.5)
        result = tracker.run(profile)
        # ~1 probe per 1.3 ms, plus restores.
        assert 300 <= result.probes <= 900
        assert len(result.sample_times_s) == result.probes

    def test_time_advances_with_probes(self, probe_bed):
        tracker = ProbeTracker(probe_bed)
        profile = StaticProfile(probe_bed.home_pose, duration_s=0.3)
        result = tracker.run(profile)
        deltas = np.diff(result.sample_times_s)
        assert np.all(deltas > 0)
        assert deltas.min() == pytest.approx(PROBE_LATENCY_S)
