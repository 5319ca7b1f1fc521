"""Unit tests for repro.optics.coupling."""

import math

import pytest

from repro.optics import EXCESS_DB_AT_WIDTH, CouplingModel, MIN_POWER_DBM


def model():
    return CouplingModel(peak_power_dbm=-10.0, lateral_width_m=10e-3,
                         angular_width_rad=2.5e-3)


class TestExcessLoss:
    def test_zero_at_alignment(self):
        assert model().excess_loss_db(0.0, 0.0) == 0.0

    def test_three_db_at_one_width(self):
        m = model()
        assert m.excess_loss_db(10e-3, 0.0) == pytest.approx(
            EXCESS_DB_AT_WIDTH)
        assert m.excess_loss_db(0.0, 2.5e-3) == pytest.approx(
            EXCESS_DB_AT_WIDTH)

    def test_quadratic_scaling(self):
        m = model()
        assert m.excess_loss_db(20e-3, 0.0) == pytest.approx(
            4 * EXCESS_DB_AT_WIDTH)

    def test_axes_add(self):
        m = model()
        combined = m.excess_loss_db(10e-3, 2.5e-3)
        assert combined == pytest.approx(2 * EXCESS_DB_AT_WIDTH)


class TestReceivedPower:
    def test_peak_at_alignment(self):
        assert model().received_power_dbm(0.0, 0.0) == pytest.approx(-10.0)

    def test_sign_of_misalignment_irrelevant(self):
        m = model()
        assert m.received_power_dbm(-5e-3, 0.0) == pytest.approx(
            m.received_power_dbm(5e-3, 0.0))

    def test_floored_far_out(self):
        assert model().received_power_dbm(10.0, 1.0) == MIN_POWER_DBM

    def test_monotone_decrease(self):
        m = model()
        powers = [m.received_power_dbm(d, 0.0)
                  for d in (0.0, 2e-3, 5e-3, 9e-3, 15e-3)]
        assert powers == sorted(powers, reverse=True)


class TestTolerances:
    def test_margin(self):
        assert model().margin_db(-25.0) == pytest.approx(15.0)

    def test_angular_tolerance_formula(self):
        m = model()
        expected = 2.5e-3 * math.sqrt(15.0 / EXCESS_DB_AT_WIDTH)
        assert m.angular_tolerance_rad(-25.0) == pytest.approx(expected)

    def test_lateral_tolerance_formula(self):
        m = model()
        expected = 10e-3 * math.sqrt(15.0 / EXCESS_DB_AT_WIDTH)
        assert m.lateral_tolerance_m(-25.0) == pytest.approx(expected)

    def test_power_at_tolerance_equals_sensitivity(self):
        m = model()
        tol = m.angular_tolerance_rad(-25.0)
        assert m.received_power_dbm(0.0, tol) == pytest.approx(-25.0)

    def test_no_margin_no_tolerance(self):
        assert model().angular_tolerance_rad(-5.0) == 0.0
        assert model().lateral_tolerance_m(-10.0) == 0.0

    def test_is_connected(self):
        # Received power against a -25 dBm receiver sensitivity.
        m = model()
        assert m.received_power_dbm(0.0, 0.0) >= -25.0
        assert m.received_power_dbm(50e-3, 0.0) < -25.0

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            CouplingModel(-10.0, 0.0, 1e-3)
        with pytest.raises(ValueError):
            CouplingModel(-10.0, 1e-3, -1.0)
