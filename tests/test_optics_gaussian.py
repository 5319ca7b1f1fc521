"""Unit tests for repro.optics.gaussian."""

import math

import pytest

from repro.optics import GaussianBeam, divergence_for_diameter


class TestGaussianBeam:
    def test_diameter_at_zero_is_waist(self):
        beam = GaussianBeam(2e-3, 4e-3)
        assert beam.diameter_at(0.0) == pytest.approx(2e-3)

    def test_far_field_linear_growth(self):
        beam = GaussianBeam(2e-3, 4e-3)
        # At long range the diameter approaches 2 * theta * z.
        assert beam.diameter_at(100.0) == pytest.approx(0.8, rel=1e-3)

    def test_diameter_monotone_in_range(self):
        beam = GaussianBeam(2e-3, 4e-3)
        diameters = [beam.diameter_at(z) for z in (0.5, 1.0, 1.5, 2.0)]
        assert diameters == sorted(diameters)

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            GaussianBeam(2e-3, 1e-3).diameter_at(-1.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            GaussianBeam(0.0, 1e-3)
        with pytest.raises(ValueError):
            GaussianBeam(1e-3, -1.0)
        with pytest.raises(ValueError):
            GaussianBeam(1e-3, 1e-3, wavelength_m=0.0)

    def test_diffraction_limit(self):
        beam = GaussianBeam(10e-3, 0.0, wavelength_m=1550e-9)
        expected = 1550e-9 / (math.pi * 5e-3)
        assert beam.diffraction_limited_divergence_rad == pytest.approx(
            expected)


class TestCurvature:
    def test_collimated_beam_has_infinite_curvature(self):
        beam = GaussianBeam(20e-3, 0.0)
        assert math.isinf(beam.curvature_radius_m(1.75))

    def test_diverging_beam_curvature_near_range(self):
        # A strongly diverging beam looks like rays from the launch
        # point: R(z) ~ z.
        div = divergence_for_diameter(16e-3, 1.75, 2e-3)
        beam = GaussianBeam(2e-3, div)
        r = beam.curvature_radius_m(1.75)
        assert 1.75 <= r <= 1.85

    def test_curvature_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            GaussianBeam(2e-3, 1e-3).curvature_radius_m(0.0)


class TestApertureFraction:
    def test_large_aperture_captures_everything(self):
        beam = GaussianBeam(16e-3, 0.0)
        assert beam.intensity_fraction_within(1.0, 1.75) == pytest.approx(
            1.0, abs=1e-9)

    def test_zero_aperture_captures_nothing(self):
        beam = GaussianBeam(16e-3, 0.0)
        assert beam.intensity_fraction_within(0.0, 1.75) == 0.0

    def test_equal_aperture_known_fraction(self):
        # Aperture diameter == 1/e^2 diameter captures 1 - e^-2.
        beam = GaussianBeam(16e-3, 0.0)
        assert beam.intensity_fraction_within(16e-3, 0.0) == pytest.approx(
            1.0 - math.exp(-2.0))

    def test_monotone_in_aperture(self):
        beam = GaussianBeam(16e-3, 2e-3)
        fractions = [beam.intensity_fraction_within(d, 1.75)
                     for d in (5e-3, 10e-3, 21e-3, 40e-3)]
        assert fractions == sorted(fractions)


class TestDivergenceForDiameter:
    def test_round_trip(self):
        div = divergence_for_diameter(16e-3, 1.75, 2e-3)
        beam = GaussianBeam(2e-3, div)
        assert beam.diameter_at(1.75) == pytest.approx(16e-3)

    def test_rejects_shrinking_target(self):
        with pytest.raises(ValueError):
            divergence_for_diameter(1e-3, 1.75, 2e-3)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_non_finite_range(self, bad):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            divergence_for_diameter(16e-3, bad, 2e-3)

    def test_wider_target_needs_more_divergence(self):
        d1 = divergence_for_diameter(10e-3, 1.75, 2e-3)
        d2 = divergence_for_diameter(20e-3, 1.75, 2e-3)
        assert d2 > d1
