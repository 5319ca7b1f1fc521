"""Table 2: errors of the first and combined GMA-model stages.

Paper values:

                      Avg. error   Max. error
    First stage (TX)    1.24 mm      5.30 mm
    First stage (RX)    1.90 mm      5.41 mm
    Combined (TX)       2.18 mm      4.07 mm
    Combined (RX)       4.54 mm      6.50 mm
"""

import numpy as np
import pytest

from repro.core import (
    BoardRig,
    evaluate_fit,
    interior_grid_points,
    summarize,
)
from repro.core.errors import beam_error_m
from repro.reporting import TextTable, fmt_float

EVAL_RANGE_M = 1.75


def stage1_errors(testbed, calibration):
    """Held-out board-prediction errors for both fitted models."""
    centers = interior_grid_points()[:60] + np.array([0.0127, 0.0127])
    summaries = {}
    for name, hardware, model in (
            ("tx", testbed.tx_hardware, calibration.tx_kspace_model),
            ("rx", testbed.rx_hardware, calibration.rx_kspace_model)):
        rig = BoardRig(hardware, rng=np.random.default_rng(17))
        errors = evaluate_fit(model, rig, centers)
        summaries[name] = summarize(f"stage1-{name}", errors)
    return summaries


def combined_errors(testbed, calibration):
    """Learned VR-space beam predictions vs physical truth."""
    system = calibration.system
    vr = testbed.vr_from_world
    errors = {"tx": [], "rx": []}
    for pose in testbed.evaluation_poses(12):
        report = testbed.tracker.report(pose)
        rx_model = system.rx_model_vr(report)
        for v1, v2 in [(-1.5, 0.5), (0.0, 0.0), (1.0, -1.0), (2.0, 1.5)]:
            testbed.tx_hardware.apply(v1, v2)
            truth = vr.compose(testbed.tx_kspace_to_world).apply_ray(
                *testbed.tx_hardware.output_beam())
            errors["tx"].append(beam_error_m(
                system.tx_model_vr.beam(v1, v2), truth, EVAL_RANGE_M))
            testbed.rx_hardware.apply(v1, v2)
            truth = vr.compose(
                testbed.rx_assembly.kspace_to_world(pose)).apply_ray(
                    *testbed.rx_hardware.output_beam())
            errors["rx"].append(beam_error_m(
                rx_model.beam(v1, v2), truth, EVAL_RANGE_M))
    return {name: summarize(f"combined-{name}", errs)
            for name, errs in errors.items()}


@pytest.fixture(scope="module")
def calibrated():
    from repro.simulate import Testbed
    testbed = Testbed(seed=3)
    return testbed, testbed.calibrate()


def test_table2(benchmark, calibrated):
    testbed, calibration = calibrated
    stage1 = benchmark.pedantic(stage1_errors, args=(testbed, calibration),
                                rounds=1, iterations=1)
    combined = combined_errors(testbed, calibration)

    table = TextTable(["stage", "avg (mm)", "max (mm)", "paper avg/max"])
    table.add_row("First Stage (TX)", fmt_float(stage1["tx"].average_mm),
                  fmt_float(stage1["tx"].maximum_mm), "1.24 / 5.30")
    table.add_row("First Stage (RX)", fmt_float(stage1["rx"].average_mm),
                  fmt_float(stage1["rx"].maximum_mm), "1.90 / 5.41")
    table.add_row("Combined (TX)", fmt_float(combined["tx"].average_mm),
                  fmt_float(combined["tx"].maximum_mm), "2.18 / 4.07")
    table.add_row("Combined (RX)", fmt_float(combined["rx"].average_mm),
                  fmt_float(combined["rx"].maximum_mm), "4.54 / 6.50")
    print("\nTable 2 -- GMA model estimation errors")
    print(table.render())

    # Shape: every error is millimetric (the regime that makes the link
    # tolerances workable).
    for summary in list(stage1.values()) + list(combined.values()):
        assert 0.1 <= summary.average_mm <= 8.0
        assert summary.maximum_mm <= 15.0
    # Combined error exceeds stage-1 error (stage 2 adds error), and the
    # RX side is the worse of the two, as in the paper.
    assert combined["tx"].average_mm >= 0.5 * stage1["tx"].average_mm
    assert combined["rx"].average_mm >= 0.8 * combined["tx"].average_mm
