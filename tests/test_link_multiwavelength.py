"""Tests for the 40G multi-wavelength designs (Section 6)."""

import math

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
        assert design.lane_wavelengths_nm == CWDM4_WAVELENGTHS_NM
        assert len(design.lane_wavelengths_nm) == 4

    def test_band_center_is_design_wavelength(self):
        design = link_40g_commodity()
        center = (CWDM4_WAVELENGTHS_NM[0] + CWDM4_WAVELENGTHS_NM[-1]) / 2
        assert design.design_wavelength_nm == pytest.approx(center)

    def test_outer_lanes_pay_more(self):
        loss = link_40g_commodity().chromatic_loss_db
        assert min(loss(1271.0), loss(1331.0)) > \
            max(loss(1291.0), loss(1311.0))

    def test_band_is_symmetric(self):
        design = link_40g_commodity()
        lanes = design.lane_wavelengths_nm
        assert design.chromatic_loss_db(lanes[0]) == pytest.approx(
            design.chromatic_loss_db(lanes[-1]))


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
        # Subtraction rounds monotonically, so the margin minus the
        # worst penalty is the smallest lane margin bit for bit.
        for chroma in (0.0, 0.015, 0.12, 0.3, 1.0):
            design = MultiWavelengthDesign(name="40G", base=link_25g(),
                                           chromatic_db_per_nm=chroma)
            for range_m in (0.5, 1.75, 2.5):
                base = design.base.margin_db(range_m)
                assert design.worst_lane_margin_db(range_m) == min(
                    base - design.chromatic_loss_db(wl)
                    for wl in design.lane_wavelengths_nm)


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


class TestValidation:
    """A lane set is checked where it is built, not deep in a query."""

    def test_rejects_no_lanes(self):
        # Otherwise worst_lane_margin_db fails as max() of nothing.
        with pytest.raises(ValueError, match="lane"):
            MultiWavelengthDesign(name="40G", base=link_25g(),
                                  lane_wavelengths_nm=())

    @pytest.mark.parametrize("lanes", [(1271.0, math.nan), (math.inf,),
                                       (0.0, 1291.0)])
    def test_rejects_bad_lane_wavelengths(self, lanes):
        with pytest.raises(ValueError, match="wavelengths"):
            MultiWavelengthDesign(name="40G", base=link_25g(),
                                  lane_wavelengths_nm=lanes)

    def test_rejects_bad_design_wavelength(self):
        with pytest.raises(ValueError, match="wavelengths"):
            MultiWavelengthDesign(name="40G", base=link_25g(),
                                  design_wavelength_nm=math.nan)

    @pytest.mark.parametrize("chroma", [-1.0, math.nan, math.inf])
    def test_rejects_bad_chromatic_slope(self, chroma):
        # A negative slope would give every lane more margin than the
        # single-wavelength base design has.
        with pytest.raises(ValueError, match="chromatic_db_per_nm"):
            MultiWavelengthDesign(name="40G", base=link_25g(),
                                  chromatic_db_per_nm=chroma)
