"""Unit tests for repro.link.tolerance: Table 1 and Fig. 11 shapes."""

import math

import numpy as np
import pytest

from repro import constants
from repro.link import (
    diameter_sweep,
    evaluate,
    lateral_tolerance_m,
    link_10g_collimated,
    link_10g_diverging,
    link_25g,
    rx_angular_tolerance_rad,
    tx_angular_tolerance_rad,
)
from repro.optics import tolerance


class TestTable1:
    """The four Table 1 operating points."""

    def test_collimated_tx_tolerance(self):
        tol = tx_angular_tolerance_rad(link_10g_collimated(), 1.75)
        assert tol * 1e3 == pytest.approx(
            constants.COLLIMATED_TX_TOLERANCE_MRAD, rel=0.1)

    def test_collimated_rx_tolerance(self):
        tol = rx_angular_tolerance_rad(link_10g_collimated(), 1.75)
        assert tol * 1e3 == pytest.approx(
            constants.COLLIMATED_RX_TOLERANCE_MRAD, rel=0.1)

    def test_diverging_tx_tolerance(self):
        tol = tx_angular_tolerance_rad(link_10g_diverging(20e-3), 1.75)
        assert tol * 1e3 == pytest.approx(
            constants.DIVERGING_20MM_TX_TOLERANCE_MRAD, rel=0.1)

    def test_diverging_rx_tolerance(self):
        tol = rx_angular_tolerance_rad(link_10g_diverging(20e-3), 1.75)
        assert tol * 1e3 == pytest.approx(
            constants.DIVERGING_20MM_RX_TOLERANCE_MRAD, rel=0.1)

    def test_diverging_beats_collimated_on_tolerance(self):
        # Table 1's trade-off, direction 1.
        collimated = evaluate(link_10g_collimated())
        diverging = evaluate(link_10g_diverging(20e-3))
        assert (diverging.tx_angular_tolerance_rad
                > 3 * collimated.tx_angular_tolerance_rad)
        assert (diverging.rx_angular_tolerance_rad
                > 2 * collimated.rx_angular_tolerance_rad)

    def test_collimated_beats_diverging_on_power(self):
        # Table 1's trade-off, direction 2 (about 25 dB apart).
        gap = (evaluate(link_10g_collimated()).peak_power_dbm
               - evaluate(link_10g_diverging(20e-3)).peak_power_dbm)
        assert 20.0 <= gap <= 30.0


class TestFig11:
    """RX angular tolerance peaks at the 16 mm beam diameter."""

    def test_peak_at_16mm(self):
        diameters = np.arange(8e-3, 33e-3, 2e-3)
        reports = diameter_sweep(link_10g_diverging, diameters, 1.75)
        tolerances = [r.rx_angular_tolerance_rad for r in reports]
        best = diameters[int(np.argmax(tolerances))]
        assert best == pytest.approx(16e-3, abs=2.1e-3)

    def test_peak_value_is_577_mrad(self):
        tol = rx_angular_tolerance_rad(link_10g_diverging(16e-3), 1.75)
        assert tol * 1e3 == pytest.approx(5.77, rel=0.05)

    def test_rises_then_falls(self):
        reports = diameter_sweep(link_10g_diverging,
                                 [8e-3, 16e-3, 32e-3], 1.75)
        left, peak, right = [r.rx_angular_tolerance_rad for r in reports]
        assert peak > left
        assert peak > right

    def test_tx_tolerance_monotone_in_diameter(self):
        reports = diameter_sweep(link_10g_diverging,
                                 [8e-3, 16e-3, 24e-3, 32e-3], 1.75)
        tx = [r.tx_angular_tolerance_rad for r in reports]
        assert tx == sorted(tx)


class TestLateralTolerance:
    def test_diverging_lateral_includes_angular_budget(self):
        # For a diverging beam, translation also rotates the arrival
        # wavefront, so the lateral tolerance is *below* the naive
        # lateral-only figure.
        design = link_10g_diverging()
        naive = tolerance(design.margin_db(1.75),
                          design.lateral_width_m(1.75),
                          design.angular_width_rad(1.75), 1.0, 0.0)
        assert lateral_tolerance_m(design, 1.75) < naive

    def test_collimated_lateral_counts_finite_curvature(self):
        # The collimated beam's wavefront radius is finite (~23 km at
        # 1.75 m), and the channel tilts incidence by d / R for it too.
        design = link_10g_collimated()
        naive = tolerance(design.margin_db(1.75),
                          design.lateral_width_m(1.75),
                          design.angular_width_rad(1.75), 1.0, 0.0)
        assert lateral_tolerance_m(design, 1.75) < naive

    def test_10g_lateral_near_9mm(self):
        # The figure that produces the 33 cm/s linear speed threshold.
        tol = lateral_tolerance_m(link_10g_diverging(16e-3), 1.75)
        assert 7e-3 <= tol <= 12e-3

    def test_25g_lateral_near_6mm(self):
        tol = lateral_tolerance_m(link_25g(), 1.75)
        assert 4e-3 <= tol <= 10e-3

    def test_zero_margin_zero_tolerance(self):
        design = link_10g_diverging()
        assert lateral_tolerance_m(design, 60.0) == 0.0


class Test25G:
    def test_rx_tolerance_matches_paper(self):
        tol = rx_angular_tolerance_rad(link_25g(), 1.75)
        assert tol * 1e3 == pytest.approx(8.73, rel=0.05)

    def test_25g_rx_beats_10g_rx(self):
        # Section 5.3.1: "slightly better RX angular tolerance".
        t25 = rx_angular_tolerance_rad(link_25g(), 1.75)
        t10 = rx_angular_tolerance_rad(link_10g_diverging(), 1.75)
        assert t25 > t10

    def test_25g_tx_worse_than_10g_tx(self):
        # Section 5.3.1: "worse TX angular tolerance ... compared to
        # our 10G link design".
        t25 = tx_angular_tolerance_rad(link_25g(), 1.75)
        t10 = tx_angular_tolerance_rad(link_10g_diverging(), 1.75)
        assert t25 < t10

    def test_report_fields_populated(self):
        report = evaluate(link_25g())
        assert report.range_m == pytest.approx(1.75)
        assert report.beam_diameter_at_rx_m > 0


class TestRangeValidation:
    """A tolerance query needs a finite, positive link range."""

    @pytest.mark.parametrize("range_m", [0.0, math.nan, math.inf])
    def test_evaluate_rejects_bad_range(self, range_m):
        with pytest.raises(ValueError):
            evaluate(link_10g_diverging(), range_m)

    @pytest.mark.parametrize("range_m", [0.0, math.nan, math.inf])
    def test_diameter_sweep_rejects_bad_range(self, range_m):
        with pytest.raises(ValueError):
            diameter_sweep(link_10g_diverging, [16e-3], range_m)

    @pytest.mark.parametrize("range_m", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("metric", [rx_angular_tolerance_rad,
                                        tx_angular_tolerance_rad,
                                        lateral_tolerance_m],
                             ids=lambda metric: metric.__name__)
    def test_metric_rejects_bad_range(self, metric, range_m):
        # Range 0 would divide by zero and a NaN would pass through.
        with pytest.raises(ValueError, match="range_m"):
            metric(link_10g_diverging(), range_m)
