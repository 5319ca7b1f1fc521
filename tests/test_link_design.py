"""Unit tests for repro.link.design: the calibrated link designs."""

import math
from dataclasses import replace

import pytest

from repro import constants
from repro.link import (
    NOISE_FLOOR_DBM,
    link_10g_collimated,
    link_10g_diverging,
    link_25g,
)


#: Every range-taking query of a design, called at one range.
RANGE_QUERIES = {
    "margin_db": lambda d, r: d.margin_db(r),
    "beam_diameter_at": lambda d, r: d.beam_diameter_at(r),
    "beam.curvature_radius_m": lambda d, r: d.beam.curvature_radius_m(r),
    "lateral_width_m": lambda d, r: d.lateral_width_m(r),
    "peak_power_dbm": lambda d, r: d.peak_power_dbm(r),
    "received_power_dbm": lambda d, r: d.received_power_dbm(r, 0.0, 0.0),
    "angular_width_rad": lambda d, r: d.angular_width_rad(r),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("query", sorted(RANGE_QUERIES))
def test_range_queries_reject_a_bad_range_by_value(query, bad):
    # A NaN or infinite range must not come back as a NaN or infinite
    # power, width or curvature.
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        RANGE_QUERIES[query](link_10g_diverging(), bad)


class TestDesignConstruction:
    def test_10g_diverging_beam_diameter(self):
        design = link_10g_diverging(16e-3)
        assert design.beam_diameter_at(1.75) == pytest.approx(16e-3)

    def test_collimated_beam_stays_narrow(self):
        design = link_10g_collimated(20e-3)
        assert design.beam_diameter_at(1.75) == pytest.approx(20e-3,
                                                              rel=1e-3)

    def test_names_are_descriptive(self):
        assert "10G" in link_10g_diverging().name
        assert "25G" in link_25g().name
        assert "collimated" in link_10g_collimated().name


class TestPowerAccounting:
    def test_diverging_peak_matches_table1(self):
        # Table 1: -10 dBm peak for the 20 mm diverging beam.
        design = link_10g_diverging(20e-3)
        assert design.peak_power_dbm(1.75) == pytest.approx(-10.0, abs=0.3)

    def test_collimated_peak_matches_table1(self):
        # Table 1: ~+15 dBm peak for the collimated beam.
        design = link_10g_collimated()
        assert design.peak_power_dbm(1.75) == pytest.approx(15.0, abs=1.0)

    def test_peak_decreases_with_diameter(self):
        powers = [link_10g_diverging(d).peak_power_dbm(1.75)
                  for d in (10e-3, 16e-3, 22e-3, 28e-3)]
        assert powers == sorted(powers, reverse=True)

    def test_budget_breakdown_sums(self):
        design = link_10g_diverging()
        terms = (design.sfp.tx_power_dbm, design.amplifier.gain_db,
                 -design.fixed_loss_db, -design.blur_loss_db(1.75),
                 -design.capture_loss_db(1.75))
        assert design.peak_power_dbm(1.75) == pytest.approx(sum(terms))

    def test_margin_positive_at_design_range(self):
        for design in (link_10g_diverging(), link_10g_collimated(),
                       link_25g()):
            assert design.margin_db(design.design_range_m) > 0


class TestCouplingWidths:
    def test_lateral_width_scales_with_diameter(self):
        a = link_10g_diverging(12e-3).lateral_width_m(1.75)
        b = link_10g_diverging(24e-3).lateral_width_m(1.75)
        assert b > a

    def test_angular_width_saturates(self):
        widths = [link_10g_diverging(d).angular_width_rad(1.75)
                  for d in (8e-3, 16e-3, 32e-3)]
        assert widths[1] > widths[0]
        # Growth slows: the second doubling gains less than the first.
        assert widths[2] - widths[1] < widths[1] - widths[0]

    def test_collimated_widths_fixed(self):
        design = link_10g_collimated()
        assert design.angular_width_rad(1.5) == pytest.approx(
            design.angular_width_rad(2.0))

    def test_coupling_model_consistent(self):
        # Aligned power is the peak; one lateral or angular width
        # costs 3 dB.
        design = link_10g_diverging()
        peak = design.peak_power_dbm(1.75)
        assert design.received_power_dbm(1.75, 0.0, 0.0) == peak
        assert design.received_power_dbm(
            1.75, design.lateral_width_m(1.75), 0.0) == pytest.approx(
                peak - 3.0)
        assert design.received_power_dbm(
            1.75, 0.0, design.angular_width_rad(1.75)) == pytest.approx(
                peak - 3.0)

    def test_received_power_floors_at_no_light(self):
        design = link_10g_diverging()
        assert design.received_power_dbm(1.75, 1.0, 1.0) == NOISE_FLOOR_DBM


class TestRangeDependence:
    def test_power_falls_with_range(self):
        design = link_10g_diverging()
        assert design.peak_power_dbm(1.5) > design.peak_power_dbm(2.0)

    def test_25g_uses_sfp28(self):
        design = link_25g()
        assert design.sfp.rx_sensitivity_dbm == pytest.approx(
            constants.SFP_25G_RX_SENSITIVITY_DBM)
        assert design.sfp.optimal_throughput_gbps == pytest.approx(23.5)


class TestValidation:
    """Bad link inputs are rejected at construction."""

    @pytest.mark.parametrize("loss", [-1.0, math.nan, math.inf])
    def test_rejects_bad_fixed_loss(self, loss):
        with pytest.raises(ValueError):
            replace(link_10g_diverging(), fixed_loss_db=loss)

    @pytest.mark.parametrize("range_m", [0.0, -1.75, math.nan, math.inf])
    def test_rejects_bad_design_range(self, range_m):
        with pytest.raises(ValueError):
            replace(link_25g(), design_range_m=range_m)

    @pytest.mark.parametrize("field", ["lateral_width_coeff",
                                       "angular_width_coeff"])
    def test_diverging_widths_must_be_positive(self, field):
        with pytest.raises(ValueError):
            replace(link_10g_diverging(), **{field: 0.0})
