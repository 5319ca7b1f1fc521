"""Unit tests for repro.optics.coupling and the power it gives a design."""

import math
from dataclasses import replace

import pytest

from repro.link import NOISE_FLOOR_DBM, link_10g_diverging
from repro.optics import EXCESS_DB_AT_WIDTH, excess_loss_db, tolerance

RANGE_M = 1.75


def excess(lateral_m, angular_rad):
    return excess_loss_db(lateral_m, 10e-3, angular_rad, 2.5e-3)


def design():
    return link_10g_diverging()


def power(lateral_m, angular_rad):
    return design().received_power_dbm(RANGE_M, lateral_m, angular_rad)


class TestExcessLoss:
    def test_zero_at_alignment(self):
        assert excess(0.0, 0.0) == 0.0

    def test_three_db_at_one_width(self):
        assert excess(10e-3, 0.0) == pytest.approx(EXCESS_DB_AT_WIDTH)
        assert excess(0.0, 2.5e-3) == pytest.approx(EXCESS_DB_AT_WIDTH)

    def test_quadratic_scaling(self):
        assert excess(20e-3, 0.0) == pytest.approx(4 * EXCESS_DB_AT_WIDTH)

    def test_axes_add(self):
        assert excess(10e-3, 2.5e-3) == pytest.approx(
            2 * EXCESS_DB_AT_WIDTH)


class TestReceivedPower:
    def test_peak_at_alignment(self):
        assert power(0.0, 0.0) == design().peak_power_dbm(RANGE_M)

    def test_sign_of_misalignment_irrelevant(self):
        assert power(-5e-3, -1e-3) == power(5e-3, 1e-3)

    def test_floored_far_out(self):
        assert power(10.0, 1.0) == NOISE_FLOOR_DBM

    def test_monotone_decrease(self):
        powers = [power(d, 0.0) for d in (0.0, 2e-3, 5e-3, 9e-3, 15e-3)]
        assert powers == sorted(powers, reverse=True)


class TestTolerances:
    def test_margin(self):
        d = design()
        assert d.margin_db(RANGE_M) == pytest.approx(
            d.peak_power_dbm(RANGE_M) - d.sfp.rx_sensitivity_dbm)

    def test_angular_tolerance_formula(self):
        expected = 2.5e-3 * math.sqrt(15.0 / EXCESS_DB_AT_WIDTH)
        assert tolerance(2.5e-3, 15.0) == pytest.approx(expected)

    def test_lateral_tolerance_formula(self):
        expected = 10e-3 * math.sqrt(15.0 / EXCESS_DB_AT_WIDTH)
        assert tolerance(10e-3, 15.0) == pytest.approx(expected)

    def test_power_at_tolerance_equals_sensitivity(self):
        d = design()
        tol = tolerance(d.angular_width_rad(RANGE_M), d.margin_db(RANGE_M))
        assert power(0.0, tol) == pytest.approx(d.sfp.rx_sensitivity_dbm)

    def test_no_margin_no_tolerance(self):
        assert tolerance(2.5e-3, -5.0) == 0.0
        assert tolerance(10e-3, 0.0) == 0.0

    def test_is_connected(self):
        # Received power against the SFP's receiver sensitivity.
        sensitivity = design().sfp.rx_sensitivity_dbm
        assert power(0.0, 0.0) >= sensitivity
        assert power(50e-3, 0.0) < sensitivity

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            replace(design(), lateral_width_coeff=0.0)
        with pytest.raises(ValueError):
            replace(design(), angular_width_coeff=-1.0)
