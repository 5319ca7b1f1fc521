"""Unit tests for repro.optics.units."""

import math

import pytest

from repro.optics import dbm_to_mw


class TestDbmConversions:
    def test_zero_dbm_is_one_mw(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)

    def test_ten_db_is_factor_ten(self):
        assert dbm_to_mw(10.0) == pytest.approx(10.0)
        assert dbm_to_mw(-10.0) == pytest.approx(0.1)

    def test_round_trip(self):
        for dbm in (-25.0, -10.0, 0.0, 4.0, 23.0):
            assert 10.0 * math.log10(dbm_to_mw(dbm)) == pytest.approx(dbm)
