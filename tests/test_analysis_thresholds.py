"""Tests for the closed-form tolerated-speed model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import (
    BudgetInputs,
    angular_speed_limit_rad_s,
    default_staleness_s,
    inputs_for,
    linear_speed_limit_m_s,
)
from repro.link import link_10g_collimated, link_10g_diverging, link_25g

from .oracles import reference_tolerance


class TestDefaults:
    def test_staleness_is_tracking_plus_actuation(self):
        # ~13 ms period + ~1.5 ms control/DAC.
        assert 0.013 <= default_staleness_s() <= 0.016

    def test_inputs_for_populates(self):
        inputs = inputs_for(link_10g_diverging())
        assert inputs.margin_db > 0
        assert inputs.lateral_width_m > 0
        assert inputs.angular_width_rad > 0
        assert math.isfinite(inputs.curvature_radius_m)

    @pytest.mark.parametrize("range_m", [0.0, -1.0, math.nan, math.inf])
    def test_inputs_for_rejects_bad_range(self, range_m):
        with pytest.raises(ValueError, match="range_m"):
            inputs_for(link_10g_diverging(), range_m)


class TestAngularLimit:
    def test_10g_limit_near_paper(self):
        # Paper: 16-18 deg/s tolerated by the 10G link.
        limit = angular_speed_limit_rad_s(inputs_for(link_10g_diverging()))
        assert 10.0 <= np.degrees(limit) <= 26.0

    def test_25g_limit_near_paper(self):
        # Paper: ~25 deg/s.
        limit = angular_speed_limit_rad_s(inputs_for(link_25g()))
        assert 18.0 <= np.degrees(limit) <= 34.0

    def test_zero_when_residual_eats_budget(self):
        inputs = inputs_for(link_10g_diverging(),
                            residual_angular_rad=0.1)
        assert angular_speed_limit_rad_s(inputs) == 0.0

    def test_limit_shrinks_with_staleness(self):
        fast = inputs_for(link_10g_diverging(), staleness_s=0.005)
        slow = inputs_for(link_10g_diverging(), staleness_s=0.030)
        assert angular_speed_limit_rad_s(fast) > \
            angular_speed_limit_rad_s(slow)

    def test_limit_grows_with_margin(self):
        base = inputs_for(link_10g_diverging())
        richer = BudgetInputs(
            margin_db=base.margin_db + 6.0,
            lateral_width_m=base.lateral_width_m,
            angular_width_rad=base.angular_width_rad,
            curvature_radius_m=base.curvature_radius_m,
            staleness_s=base.staleness_s,
            residual_lateral_m=base.residual_lateral_m,
            residual_angular_rad=base.residual_angular_rad)
        assert angular_speed_limit_rad_s(richer) > \
            angular_speed_limit_rad_s(base)


class TestLinearLimit:
    def test_10g_limit_near_simulated(self):
        # The simulator tolerates ~46 cm/s; the paper 33-39.
        limit = linear_speed_limit_m_s(inputs_for(link_10g_diverging()))
        assert 0.25 <= limit <= 0.65

    def test_25g_below_10g(self):
        # Table 3's ordering.
        lin10 = linear_speed_limit_m_s(inputs_for(link_10g_diverging()))
        lin25 = linear_speed_limit_m_s(inputs_for(link_25g()))
        assert lin25 < lin10

    def test_curvature_drives_linear_limit(self):
        # Without the wavefront-rotation effect (collimated-like
        # infinite curvature) the linear tolerance becomes much larger.
        base = inputs_for(link_10g_diverging())
        flat = BudgetInputs(
            margin_db=base.margin_db,
            lateral_width_m=base.lateral_width_m,
            angular_width_rad=base.angular_width_rad,
            curvature_radius_m=math.inf,
            staleness_s=base.staleness_s,
            residual_lateral_m=base.residual_lateral_m,
            residual_angular_rad=base.residual_angular_rad)
        assert linear_speed_limit_m_s(flat) > \
            1.5 * linear_speed_limit_m_s(base)

    def test_zero_when_residual_eats_budget(self):
        inputs = inputs_for(link_10g_diverging(),
                            residual_lateral_m=0.1)
        assert linear_speed_limit_m_s(inputs) == 0.0


BAD_INPUTS = [
    ("margin_db", math.nan), ("margin_db", math.inf),
    ("margin_db", -math.inf),
    ("lateral_width_m", math.nan), ("lateral_width_m", 0.0),
    ("lateral_width_m", -1e-3), ("lateral_width_m", math.inf),
    ("angular_width_rad", math.nan), ("angular_width_rad", 0.0),
    ("angular_width_rad", -1e-3), ("angular_width_rad", math.inf),
    ("curvature_radius_m", math.nan), ("curvature_radius_m", 0.0),
    ("curvature_radius_m", -1.0),
    ("staleness_s", math.nan), ("staleness_s", 0.0),
    ("staleness_s", -0.01), ("staleness_s", math.inf),
    ("residual_lateral_m", math.nan), ("residual_lateral_m", -1e-3),
    ("residual_lateral_m", math.inf),
    ("residual_angular_rad", math.nan), ("residual_angular_rad", -1e-3),
    ("residual_angular_rad", math.inf),
]


class TestBudgetInputs:
    @pytest.mark.parametrize("field,value", BAD_INPUTS)
    def test_rejects_bad_value_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(inputs_for(link_10g_diverging()), **{field: value})

    def test_accepts_a_waist_and_an_overdrawn_margin(self):
        inputs = replace(inputs_for(link_10g_diverging()),
                         curvature_radius_m=math.inf, margin_db=-3.0)
        assert linear_speed_limit_m_s(inputs) == 0.0
        assert angular_speed_limit_rad_s(inputs) == 0.0


class TestClosedForm:
    def test_short_staleness_is_not_capped(self):
        # Above 10 m/s: the limit needs no upper bracket.
        inputs = inputs_for(link_10g_diverging(), staleness_s=0.0005)
        assert linear_speed_limit_m_s(inputs) == pytest.approx(13.85,
                                                               rel=1e-3)

    @pytest.mark.parametrize("design", [link_10g_diverging(), link_25g(),
                                        link_10g_collimated()])
    @pytest.mark.parametrize("staleness_s", [0.0005, 0.0145, 0.1])
    def test_limits_match_bisection(self, design, staleness_s):
        inputs = inputs_for(design, staleness_s=staleness_s)
        common = (inputs.margin_db, inputs.lateral_width_m,
                  inputs.angular_width_rad)
        start = (inputs.residual_lateral_m, inputs.residual_angular_rad)
        angular = reference_tolerance(*common, 0.0, staleness_s, *start)
        linear = reference_tolerance(
            *common, staleness_s, staleness_s / inputs.curvature_radius_m,
            *start)
        assert angular_speed_limit_rad_s(inputs) == pytest.approx(
            angular, rel=1e-12)
        assert linear_speed_limit_m_s(inputs) == pytest.approx(
            linear, rel=1e-12)
