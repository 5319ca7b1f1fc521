"""Executable experiment registry: DESIGN.md's index as code.

Each scenario names one of the paper's evaluation artifacts and can
produce a quick headline summary (a dictionary of metrics).  The full
regeneration lives in ``benchmarks/``; scenarios give programs (and
the CLI's ``scenario`` command) a uniform way to run the cheap
version of any experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np


@dataclass(frozen=True)
class Scenario:
    """One named experiment."""

    scenario_id: str
    paper_ref: str
    description: str
    bench: str
    #: Headline metrics, computed in seconds not minutes.
    quick: Callable[[], Dict[str, float]]


def _table1_quick() -> Dict[str, float]:
    from ..link import evaluate, link_10g_collimated, link_10g_diverging
    collimated = evaluate(link_10g_collimated(20e-3))
    diverging = evaluate(link_10g_diverging(20e-3))
    return {
        "collimated_rx_tol_mrad":
            collimated.rx_angular_tolerance_rad * 1e3,
        "diverging_rx_tol_mrad":
            diverging.rx_angular_tolerance_rad * 1e3,
        "power_gap_db": (collimated.peak_power_dbm
                         - diverging.peak_power_dbm),
    }


def _fig11_quick() -> Dict[str, float]:
    from ..link import diameter_sweep, link_10g_diverging
    diameters = np.arange(8e-3, 33e-3, 2e-3)
    reports = diameter_sweep(link_10g_diverging, diameters, 1.75)
    tolerances = [r.rx_angular_tolerance_rad for r in reports]
    best = int(np.argmax(tolerances))
    return {
        "peak_diameter_mm": diameters[best] * 1e3,
        "peak_rx_tol_mrad": tolerances[best] * 1e3,
    }


def _table2_quick(seed: int = 55) -> Dict[str, float]:
    from ..core import BoardRig, evaluate_fit, interior_grid_points
    from ..determinism import resolve_rng
    from .rig import Testbed
    testbed = Testbed(seed=3)
    outcome = testbed.calibrate()
    rig = BoardRig(testbed.tx_hardware,
                   rng=resolve_rng(seed=seed, owner="_table2_quick"))
    holdout = interior_grid_points()[:30] + np.array([0.0127, 0.0127])
    errors = evaluate_fit(outcome.tx_kspace_model, rig, holdout)
    return {
        "stage1_tx_avg_mm": float(errors.mean() * 1e3),
        "stage1_tx_max_mm": float(errors.max() * 1e3),
    }


def _sec52_quick() -> Dict[str, float]:
    from .montecarlo import calibration_quality
    return calibration_quality(seed=3, trials=5)


def _fig16_quick() -> Dict[str, float]:
    from ..motion import generate_batch
    from .availability import report
    from .batch import simulate_batch
    batch = generate_batch(viewers=10, videos=5, columns="steps")
    availability = report(simulate_batch(batch))
    return {
        "overall_availability": availability.overall_availability,
        "worst_trace": availability.worst,
    }


def _thresholds_quick() -> Dict[str, float]:
    from ..analysis import (
        angular_speed_limit_rad_s,
        inputs_for,
        linear_speed_limit_m_s,
    )
    from ..link import link_10g_diverging
    inputs = inputs_for(link_10g_diverging())
    return {
        "linear_limit_cm_s": linear_speed_limit_m_s(inputs) * 100,
        "angular_limit_deg_s": float(np.degrees(
            angular_speed_limit_rad_s(inputs))),
    }


SCENARIOS: Dict[str, Scenario] = {
    scenario.scenario_id: scenario for scenario in (
        Scenario("table1", "Table 1",
                 "collimated vs diverging link tolerances",
                 "benchmarks/bench_table1_link_tolerance.py",
                 _table1_quick),
        Scenario("fig11", "Fig. 11",
                 "RX angular tolerance vs beam diameter at RX",
                 "benchmarks/bench_fig11_divergence_sweep.py",
                 _fig11_quick),
        Scenario("table2", "Table 2",
                 "GMA model estimation errors",
                 "benchmarks/bench_table2_gma_errors.py",
                 _table2_quick),
        Scenario("sec52", "Section 5.2",
                 "TP realignment accuracy trials",
                 "benchmarks/bench_sec52_tp_accuracy.py",
                 _sec52_quick),
        Scenario("fig16", "Fig. 16",
                 "trace-driven availability of the 25G link",
                 "benchmarks/bench_fig16_trace_availability.py",
                 _fig16_quick),
        Scenario("thresholds", "Figs. 13/15 (closed form)",
                 "tolerated speeds from the analytic budget",
                 "benchmarks/bench_analysis_validation.py",
                 _thresholds_quick),
    )
}


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, in id order."""
    return [SCENARIOS[key] for key in sorted(SCENARIOS)]


def get_scenario(scenario_id: str) -> Scenario:
    """Look up one scenario; raises ``KeyError`` with suggestions."""
    if scenario_id not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown scenario {scenario_id!r}; available: {known}")
    return SCENARIOS[scenario_id]
