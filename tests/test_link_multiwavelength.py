"""Tests for the 40G multi-wavelength designs (Section 6)."""

import pytest

from repro.link import (
    CWDM4_WAVELENGTHS_NM,
    MultiWavelengthDesign,
    link_25g,
    link_40g_commodity,
    link_40g_custom,
)


class TestLaneGeometry:
    def test_four_cwdm_lanes(self):
        design = link_40g_commodity()
        assert len(design.lane_reports()) == 4

    def test_band_center_is_design_wavelength(self):
        design = link_40g_commodity()
        center = (CWDM4_WAVELENGTHS_NM[0] + CWDM4_WAVELENGTHS_NM[-1]) / 2
        assert design.design_wavelength_nm == pytest.approx(center)

    def test_outer_lanes_pay_more(self):
        reports = link_40g_commodity().lane_reports()
        inner = [r for r in reports
                 if r.wavelength_nm in (1291.0, 1311.0)]
        outer = [r for r in reports
                 if r.wavelength_nm in (1271.0, 1331.0)]
        assert min(o.chromatic_loss_db for o in outer) > \
            max(i.chromatic_loss_db for i in inner)

    def test_band_is_symmetric(self):
        reports = link_40g_commodity().lane_reports()
        assert reports[0].chromatic_loss_db == pytest.approx(
            reports[-1].chromatic_loss_db)


class TestFeasibility:
    def test_both_feasible_at_design_range(self):
        # Every lane's budget closes.
        assert link_40g_commodity().worst_lane_margin_db() > 0
        assert link_40g_custom().worst_lane_margin_db() > 0

    def test_custom_has_more_margin(self):
        assert (link_40g_custom().worst_lane_margin_db()
                > link_40g_commodity().worst_lane_margin_db() + 2.0)

    def test_bad_singlet_kills_outer_lanes(self):
        # Dial the chromatic coefficient up to a poor singlet's level:
        # the outer CWDM lanes stop closing while an achromatic
        # collimator at the same budget still works.
        bad = MultiWavelengthDesign(name="bad singlet", base=link_25g(),
                                    chromatic_db_per_nm=0.30)
        assert bad.worst_lane_margin_db() < 0
        assert link_40g_custom().worst_lane_margin_db() > 0

    def test_worst_lane_is_min(self):
        design = link_40g_commodity()
        reports = design.lane_reports()
        assert design.worst_lane_margin_db() == pytest.approx(
            min(r.margin_db for r in reports))


class TestMovementTolerance:
    def test_chromatic_penalty_shrinks_tolerance(self):
        commodity = link_40g_commodity()
        custom = link_40g_custom()
        assert (commodity.worst_lane_angular_tolerance_rad()
                < custom.worst_lane_angular_tolerance_rad())

    def test_tolerance_zero_when_infeasible(self):
        design = MultiWavelengthDesign(
            name="hopeless", base=link_25g(),
            chromatic_db_per_nm=1.0)  # absurd chroma
        assert design.worst_lane_angular_tolerance_rad() == 0.0

    def test_custom_near_single_wavelength_tolerance(self):
        # The custom collimator nearly recovers the base design's
        # single-wavelength tolerance.
        from repro.link import rx_angular_tolerance_rad
        base = rx_angular_tolerance_rad(link_25g(), 1.75)
        custom = link_40g_custom().worst_lane_angular_tolerance_rad(1.75)
        assert custom == pytest.approx(base, rel=0.06)
