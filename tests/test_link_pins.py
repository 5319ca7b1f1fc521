"""Pins the link layer's numbers: Table 1, Fig. 11, the threshold model,
eye safety and the 40G lanes.

``link_layer_snapshot`` recomputes every number the §5.1 budget and the
coupling roll-off feed; ``link_layer_pins.json`` holds the values the
calibrated model produced when it was pinned.  A refactor of
``repro.link``, ``repro.optics`` or ``repro.analysis`` must leave them
unchanged.  The comparison is ``rel=1e-12``, not exact, so that a libm
differing in the last ulp across Python builds does not fail it.

Rewrite the JSON (``python -m tests.test_link_pins`` from the repo root,
with ``PYTHONPATH=src``) only for a deliberate recalibration.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    angular_speed_limit_rad_s,
    inputs_for,
    linear_speed_limit_m_s,
)
from repro.link import (
    MultiWavelengthDesign,
    diameter_sweep,
    evaluate,
    link_10g_collimated,
    link_10g_diverging,
    link_25g,
)
from repro.optics import assess_design

PINS = Path(__file__).with_name("link_layer_pins.json")

RANGES_M = (0.5, 1.0, 1.75, 2.5)
FIG11_DIAMETERS_M = np.arange(8e-3, 33e-3, 2e-3)
CHROMA_DB_PER_NM = (0.015, 0.06, 0.12, 0.20, 0.30)


def _designs():
    return {
        "10g_diverging_16mm": link_10g_diverging(),
        "10g_diverging_20mm": link_10g_diverging(20e-3),
        "10g_collimated_20mm": link_10g_collimated(),
        "25g_16mm": link_25g(),
        "25g_20mm": link_25g(20e-3),
    }


def _report_row(report):
    return [report.beam_diameter_at_rx_m, report.peak_power_dbm,
            report.tx_angular_tolerance_rad,
            report.rx_angular_tolerance_rad, report.lateral_tolerance_m]


def link_layer_snapshot():
    """Every pinned number, keyed by what it is."""
    snap = {}
    designs = _designs()
    for name, design in designs.items():
        for r in RANGES_M:
            snap[f"evaluate/{name}/{r}"] = _report_row(evaluate(design, r))
    snap["fig11"] = [x for report in diameter_sweep(
        link_10g_diverging, FIG11_DIAMETERS_M, 1.75)
        for x in _report_row(report)]
    for name in ("10g_diverging_16mm", "25g_16mm", "10g_collimated_20mm"):
        design = designs[name]
        inputs = inputs_for(design)
        snap[f"thresholds/{name}"] = [
            inputs.margin_db, inputs.lateral_width_m,
            inputs.angular_width_rad, inputs.curvature_radius_m,
            angular_speed_limit_rad_s(inputs),
            linear_speed_limit_m_s(inputs)]
        safety = assess_design(design)
        snap[f"safety/{name}"] = [
            safety.wavelength_nm, safety.launched_power_dbm,
            safety.class1_limit_mw,
            safety.worst_pupil_power_at_link_range_mw,
            safety.hazard_distance_m]
    for chroma in CHROMA_DB_PER_NM:
        lanes = MultiWavelengthDesign(name="40G", base=link_25g(),
                                      chromatic_db_per_nm=chroma)
        snap[f"40g/{chroma}"] = [
            lanes.worst_lane_margin_db(),
            lanes.worst_lane_angular_tolerance_rad()]
    return snap


PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}


@pytest.fixture(scope="module")
def snapshot():
    return link_layer_snapshot()


def test_pins_cover_the_snapshot(snapshot):
    assert sorted(snapshot) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_link_layer_number_is_pinned(snapshot, key):
    got = snapshot[key]
    assert all(math.isfinite(x) for x in got)
    assert got == pytest.approx(PINNED[key], rel=1e-12)


if __name__ == "__main__":
    PINS.write_text(json.dumps(link_layer_snapshot(), indent=1) + "\n")
