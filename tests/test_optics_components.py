"""Unit tests for collimators, amplifier, SFPs and link budgets."""

import pytest

from repro import constants
from repro.optics import (
    Amplifier,
    C40FC_C,
    Collimator,
    F810FC_1550,
    SFP28_LR,
    SFP_10G_ZR,
    Sfp,
)


class TestCollimator:
    def test_catalogue_entries_valid(self):
        for collimator in (F810FC_1550, C40FC_C):
            assert collimator.aperture_m > 0
            assert collimator.focal_length_m > 0
            assert collimator.fiber_core_m > 0

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Collimator("bad", aperture_m=0.0, focal_length_m=1e-3,
                       fiber_core_m=1e-6)


class TestAmplifier:
    def test_small_signal_gain(self):
        amp = Amplifier(20.0)
        assert amp.amplify_dbm(-10.0) == pytest.approx(10.0)

    def test_saturation(self):
        amp = Amplifier(20.0, saturation_output_dbm=15.0)
        assert amp.amplify_dbm(0.0) == pytest.approx(15.0)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            Amplifier(-1.0)


class TestSfp:
    def test_10g_budget(self):
        # TX power minus sensitivity: the dB loss the link can absorb.
        assert (SFP_10G_ZR.tx_power_dbm - SFP_10G_ZR.rx_sensitivity_dbm
                == pytest.approx(25.0))

    def test_25g_budget_in_datasheet_range(self):
        assert 12.0 <= (SFP28_LR.tx_power_dbm
                        - SFP28_LR.rx_sensitivity_dbm) <= 18.0

    def test_signal_detection_threshold(self):
        assert SFP_10G_ZR.signal_detected(-25.0)
        assert not SFP_10G_ZR.signal_detected(-25.1)

    def test_goodput_below_line_rate(self):
        for sfp in (SFP_10G_ZR, SFP28_LR):
            assert sfp.optimal_throughput_gbps < sfp.line_rate_gbps

    def test_rejects_goodput_above_line_rate(self):
        with pytest.raises(ValueError):
            Sfp("bad", 0.0, -20.0, 1550.0, line_rate_gbps=10.0,
                optimal_throughput_gbps=11.0)

    def test_relock_delay_matches_paper(self):
        assert 1.0 <= SFP_10G_ZR.relock_delay_s <= 5.0


class TestLinkBudget:
    def test_constants_coupling_loss_documented(self):
        # The paper's -30 dB diverging coupling loss is recorded.
        assert constants.DIVERGING_COUPLING_LOSS_DB == pytest.approx(30.0)
