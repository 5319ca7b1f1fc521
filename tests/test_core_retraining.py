"""Tests for drift detection and mapping-only re-training."""

import numpy as np
import pytest

from repro.core import DriftMonitor, point, remap
from repro.simulate import Testbed


class TestDriftMonitor:
    def test_learns_baseline_first(self):
        monitor = DriftMonitor(baseline_samples=5, window=3)
        for _ in range(4):
            assert monitor.observe(-10.0) is False
        assert monitor.baseline_dbm is None
        monitor.observe(-10.0)
        assert monitor.baseline_dbm == pytest.approx(-10.0)
        # A full window above the baseline is never flagged as drift.
        assert [monitor.observe(-8.0) for _ in range(3)] == [False] * 3
        assert monitor.baseline_dbm == pytest.approx(-10.0)

    def test_no_flag_for_stable_power(self):
        monitor = DriftMonitor(baseline_samples=5, window=3)
        flags = [monitor.observe(-10.0 + 0.2 * (i % 3))
                 for i in range(30)]
        assert not any(flags)

    def test_flags_persistent_degradation(self):
        monitor = DriftMonitor(degradation_db=6.0, baseline_samples=5,
                               window=3)
        for _ in range(5):
            monitor.observe(-10.0)
        flagged = False
        for _ in range(5):
            flagged = monitor.observe(-20.0)
        assert flagged

    def test_single_outlier_does_not_flag(self):
        monitor = DriftMonitor(degradation_db=6.0, baseline_samples=5,
                               window=5)
        for _ in range(5):
            monitor.observe(-10.0)
        for _ in range(4):
            monitor.observe(-10.0)
        # One bad reading amid good ones: the median holds.
        assert monitor.observe(-40.0) is False

    def test_reset_relearns(self):
        monitor = DriftMonitor(baseline_samples=3, window=3)
        for _ in range(3):
            monitor.observe(-10.0)
        monitor.reset()
        assert monitor.baseline_dbm is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(degradation_db=0.0)
        with pytest.raises(ValueError):
            DriftMonitor(window=1)


class TestRemap:
    @pytest.fixture(scope="class")
    def drifted_world(self):
        testbed = Testbed(seed=9)
        outcome = testbed.calibrate()
        testbed.apply_tracker_drift(translation_m=(0.04, -0.02, 0.01),
                                    yaw_rad=np.radians(3.0))
        return testbed, outcome.system

    def quality(self, testbed, system, n=5):
        connected = 0
        for pose in testbed.evaluation_poses(n):
            command = point(system, testbed.tracker.report(pose))
            try:
                testbed.apply_command(command)
            except ValueError:
                continue
            connected += testbed.channel.evaluate(pose).connected
        return connected / n

    def test_drift_breaks_the_stale_system(self, drifted_world):
        testbed, system = drifted_world
        assert self.quality(testbed, system) < 0.5

    def test_remap_recovers_without_board_calibration(self,
                                                      drifted_world):
        testbed, system = drifted_world
        fresh = testbed.collect_mapping_samples(10)
        recovered = remap(system, fresh)
        assert self.quality(testbed, recovered) == 1.0

    def test_remap_preserves_kspace_models(self, drifted_world):
        testbed, system = drifted_world
        fresh = testbed.collect_mapping_samples(6)
        recovered = remap(system, fresh)
        assert np.allclose(
            recovered.rx_model_kspace.params.to_vector(),
            system.rx_model_kspace.params.to_vector())
