"""Tests for per-seed calibration quality and the scenario registry."""

import numpy as np
import pytest

from repro.simulate import (
    SCENARIOS,
    calibration_quality,
    get_scenario,
    list_scenarios,
)


class TestCalibrationQuality:
    def test_seed3_is_ten_for_ten(self):
        metrics = calibration_quality(seed=3, trials=6)
        assert metrics["connected_fraction"] == 1.0
        assert metrics["excess_db_mean"] < 6.0
        assert metrics["excess_db_max"] >= metrics["excess_db_mean"]


class TestScenarioRegistry:
    def test_registry_nonempty(self):
        assert len(SCENARIOS) >= 6

    def test_list_is_sorted(self):
        ids = [s.scenario_id for s in list_scenarios()]
        assert ids == sorted(ids)

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError) as excinfo:
            get_scenario("fig99")
        assert "table1" in str(excinfo.value)

    def test_every_scenario_names_a_bench(self):
        import os
        for scenario in list_scenarios():
            assert os.path.exists(scenario.bench), scenario.bench

    def test_cheap_scenarios_run(self):
        for scenario_id in ("table1", "fig11", "thresholds"):
            metrics = get_scenario(scenario_id).quick()
            assert metrics
            assert all(np.isfinite(v) for v in metrics.values())

    def test_fig11_quick_matches_bench_headline(self):
        metrics = get_scenario("fig11").quick()
        assert metrics["peak_diameter_mm"] == pytest.approx(16.0,
                                                            abs=2.1)
        assert metrics["peak_rx_tol_mrad"] == pytest.approx(5.77,
                                                            rel=0.05)

    def test_fig16_quick_in_band(self):
        metrics = get_scenario("fig16").quick()
        assert 0.96 <= metrics["overall_availability"] <= 1.0
