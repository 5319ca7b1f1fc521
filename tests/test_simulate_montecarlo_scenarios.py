"""Tests for the seed sweeps and the scenario registry."""

import numpy as np
import pytest

from repro.simulate import (
    MetricSummary,
    SCENARIOS,
    calibration_quality,
    get_scenario,
    list_scenarios,
    sweep_seeds,
)


def linear_metric(seed):
    """Module-level so the pooled path can ship it to workers."""
    return {"value": float(seed), "twice": 2.0 * seed}


class TestSweepSeeds:
    def test_aggregates_metrics(self):
        def fake_metric(seed):
            return {"value": float(seed), "constant": 1.0}

        summary = sweep_seeds(fake_metric, seeds=[1, 2, 3])
        assert summary["value"].mean == pytest.approx(2.0)
        assert summary["value"].worst == 1.0
        assert summary["value"].best == 3.0
        assert summary["constant"].std == 0.0

    def test_single_seed_std_zero(self):
        summary = sweep_seeds(lambda s: {"v": 5.0}, seeds=[7])
        assert summary["v"].std == 0.0

    def test_rejects_no_seeds(self):
        with pytest.raises(ValueError):
            sweep_seeds(lambda s: {}, seeds=[])

    def test_metric_summary_fields(self):
        summary = MetricSummary("m", np.array([1.0, 3.0]))
        assert summary.mean == 2.0
        assert summary.std == pytest.approx(np.sqrt(2.0))

    def test_workers_do_not_change_values(self):
        serial = sweep_seeds(linear_metric, seeds=[4, 5, 6], workers=1)
        pooled = sweep_seeds(linear_metric, seeds=[4, 5, 6], workers=2)
        assert sorted(pooled) == sorted(serial)
        for name in serial:
            assert serial[name].values.tobytes() == \
                pooled[name].values.tobytes()


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
            metrics = get_scenario(scenario_id).run_quick()
            assert metrics
            assert all(np.isfinite(v) for v in metrics.values())

    def test_fig11_quick_matches_bench_headline(self):
        metrics = get_scenario("fig11").run_quick()
        assert metrics["peak_diameter_mm"] == pytest.approx(16.0,
                                                            abs=2.1)
        assert metrics["peak_rx_tol_mrad"] == pytest.approx(5.77,
                                                            rel=0.05)

    def test_fig16_quick_in_band(self):
        metrics = get_scenario("fig16").run_quick()
        assert 0.96 <= metrics["overall_availability"] <= 1.0
