"""Unit tests for repro.optics.coupling and the power it gives a design."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.link import NOISE_FLOOR_DBM, link_10g_diverging
from repro.optics import excess_loss_db, tolerance
from repro.optics.coupling import EXCESS_DB_AT_WIDTH

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
        assert tolerance(15.0, 10e-3, 2.5e-3, 0.0, 1.0) == \
            pytest.approx(expected)

    def test_lateral_tolerance_formula(self):
        expected = 10e-3 * math.sqrt(15.0 / EXCESS_DB_AT_WIDTH)
        assert tolerance(15.0, 10e-3, 2.5e-3, 1.0, 0.0) == \
            pytest.approx(expected)

    def test_power_at_tolerance_equals_sensitivity(self):
        d = design()
        tol = tolerance(d.margin_db(RANGE_M), d.lateral_width_m(RANGE_M),
                        d.angular_width_rad(RANGE_M), 0.0, 1.0)
        assert power(0.0, tol) == pytest.approx(d.sfp.rx_sensitivity_dbm)

    def test_no_margin_no_tolerance(self):
        assert tolerance(-5.0, 10e-3, 2.5e-3, 0.0, 1.0) == 0.0
        assert tolerance(0.0, 10e-3, 2.5e-3, 1.0, 0.0) == 0.0

    def test_still_path_is_unbounded(self):
        assert tolerance(15.0, 10e-3, 2.5e-3, 0.0, 0.0) == math.inf
        assert tolerance(15.0, 10e-3, 2.5e-3, 0.0, 0.0,
                         angular_start_rad=2.5e-3) == math.inf

    def test_start_spends_margin_first(self):
        # Half the margin spent at the start leaves 1/sqrt(2) of the
        # distance to the edge.
        start = tolerance(15.0, 10e-3, 2.5e-3, 0.0, 1.0) / math.sqrt(2.0)
        remaining = tolerance(15.0, 10e-3, 2.5e-3, 0.0, 1.0,
                              angular_start_rad=start)
        assert remaining == pytest.approx(start * (math.sqrt(2.0) - 1.0))

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


_RATE = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))


class TestToleranceInverse:
    """``tolerance`` is the exact inverse of ``excess_loss_db``."""

    @given(margin=st.floats(min_value=0.01, max_value=40.0),
           lateral_width=st.floats(min_value=1e-4, max_value=0.1),
           angular_width=st.floats(min_value=1e-4, max_value=0.1),
           lateral_rate=_RATE, angular_rate=_RATE,
           lateral_start=st.floats(min_value=0.0, max_value=0.05),
           angular_start=st.floats(min_value=0.0, max_value=0.05))
    def test_motion_spends_exactly_the_margin(
            self, margin, lateral_width, angular_width, lateral_rate,
            angular_rate, lateral_start, angular_start):
        if lateral_rate == angular_rate == 0.0:
            angular_rate = 1.0
        s = tolerance(margin, lateral_width, angular_width, lateral_rate,
                      angular_rate, lateral_start, angular_start)
        at_start = excess_loss_db(lateral_start, lateral_width,
                                  angular_start, angular_width)
        assert (s == 0.0) == (at_start >= margin)
        if s > 0.0:
            spent = excess_loss_db(lateral_start + lateral_rate * s,
                                   lateral_width,
                                   angular_start + angular_rate * s,
                                   angular_width)
            assert spent == pytest.approx(margin, rel=1e-12)
