"""Link designs: the optical configurations of Section 5.1 and 5.3.1.

A :class:`LinkDesign` bundles the transceiver, amplifier, launch beam,
and receive collimator.  It is the one link model: it owns the §5.1
power budget and, through :mod:`repro.optics.coupling`, the calibrated
coupling roll-off at any link range.  Three designs are provided,
matching the paper's prototypes:

* ``link_10g_diverging`` -- adjustable aspheric collimator at TX, fixed
  F810FC-1550 at RX, diverging beam with a chosen diameter at RX
  (16 mm optimal, Fig. 11);
* ``link_10g_collimated`` -- 20 mm collimated beam via a beam expander
  (the Table 1 alternative);
* ``link_25g`` -- SFP28 with adjustable-focus C40FC-C collimators
  (Section 5.3.1).

Calibration
-----------
The coupling widths and fixed losses below are *calibrated once* against
the paper's measured operating points (Table 1, Fig. 11, Section 5.3.1)
and then never touched again: every downstream result -- tolerance
sweeps, speed thresholds, trace availability -- is emergent.  The
structure is physical:

* peak power = TX + amplifier - fixed insertion/mode loss - defocus
  blur loss (focused spot vs fiber core) - aperture capture loss;
* lateral width scales with beam diameter (how far the lens can slide
  across the Gaussian profile);
* angular width grows with beam diameter but saturates
  (``d^2 / (d^2 + d_sat^2)``), which together with the shrinking power
  margin puts the RX angular tolerance peak at 16 mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import constants
from ..optics import (
    Amplifier,
    C40FC_C,
    Collimator,
    F810FC_1550,
    GaussianBeam,
    SFP28_LR,
    SFP_10G_ZR,
    Sfp,
    divergence_for_diameter,
    excess_loss_db,
)

# Calibrated constants (see module docstring and DESIGN.md Section 5).
FIXED_LOSS_10G_DIVERGING_DB = 10.918   # anchors peak(-10 dBm) at 20 mm
FIXED_LOSS_10G_COLLIMATED_DB = 5.0     # anchors peak(+15 dBm)
FIXED_LOSS_25G_DB = 9.0                # 2-3 dB better coupling (C40FC)
LATERAL_WIDTH_COEFF_10G = 0.61866      # anchors TX tol 15.81 mrad @ 20 mm
LATERAL_WIDTH_COEFF_25G = 0.3125       # anchors ~6 mm linear tolerance
ANGULAR_WIDTH_COEFF_10G = 2.79266e-3   # anchors RX tol peak 5.77 mrad
ANGULAR_WIDTH_COEFF_25G = 5.95342e-3   # anchors RX tol 8.73 mrad @ 16 mm
ANGULAR_SAT_DIAMETER_M = 6.44827e-3    # puts the RX tol peak at 16 mm
COLLIMATED_LATERAL_SLACK_M = 0.46e-3   # anchors TX tol 2.00 mrad
COLLIMATED_ANGULAR_FACTOR = 0.92736    # anchors RX tol 2.28 mrad
LAUNCH_WAIST_DIAMETER_M = 2e-3         # fiber collimator output beam
NOISE_FLOOR_DBM = -42.0                # photodetector reading floor: no light


@dataclass(frozen=True)
class LinkDesign:
    """One optical link configuration, rate-agnostic physics included."""

    name: str
    sfp: Sfp
    amplifier: Amplifier
    beam: GaussianBeam
    rx_collimator: Collimator
    design_range_m: float
    fixed_loss_db: float
    lateral_width_coeff: float
    angular_width_coeff: float
    diverging: bool

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fixed_loss_db) and self.fixed_loss_db >= 0):
            raise ValueError("fixed_loss_db must be finite and >= 0")
        if not (math.isfinite(self.design_range_m)
                and self.design_range_m > 0):
            raise ValueError("design_range_m must be finite and positive")
        if self.diverging and not (self.lateral_width_coeff > 0
                                   and self.angular_width_coeff > 0):
            raise ValueError("coupling widths must be positive")

    # -- power accounting ----------------------------------------------------

    def beam_diameter_at(self, range_m: float) -> float:
        """Beam diameter at the receiver for a given range."""
        return self.beam.diameter_at(range_m)

    def blur_loss_db(self, range_m: float) -> float:
        """Defocus loss: a diverging arrival focuses to a blurred spot.

        The blur diameter at the fiber tip is approximately
        ``f * d / L`` (focal length times the arrival cone's full
        angle); power couples in proportion to core-to-blur area.
        """
        d = self.beam_diameter_at(range_m)
        f = self.rx_collimator.focal_length_m
        core = self.rx_collimator.fiber_core_m
        blur = f * d / range_m if self.diverging else core
        return 20.0 * math.log10(max(1.0, blur / core))

    def capture_loss_db(self, range_m: float) -> float:
        """Loss from the lens aperture truncating the Gaussian profile."""
        fraction = self.beam.intensity_fraction_within(
            self.rx_collimator.aperture_m, range_m)
        if fraction <= 0.0:
            return math.inf
        return -10.0 * math.log10(fraction)

    def peak_power_dbm(self, range_m: float) -> float:
        """Aligned received power: TX power plus the §5.1 budget."""
        return self.sfp.tx_power_dbm + sum((
            self.amplifier.gain_db, -self.fixed_loss_db,
            -self.blur_loss_db(range_m), -self.capture_loss_db(range_m)))

    def received_power_dbm(self, range_m: float, lateral_offset_m: float,
                           incidence_angle_rad: float) -> float:
        """Received power at a misalignment, floored at no light."""
        power = self.peak_power_dbm(range_m) - excess_loss_db(
            lateral_offset_m, self.lateral_width_m(range_m),
            incidence_angle_rad, self.angular_width_rad(range_m))
        return max(power, NOISE_FLOOR_DBM)

    def margin_db(self, range_m: float) -> float:
        """Headroom above the SFP sensitivity when aligned."""
        return self.peak_power_dbm(range_m) - self.sfp.rx_sensitivity_dbm

    # -- coupling widths -----------------------------------------------------

    def lateral_width_m(self, range_m: float) -> float:
        """Lateral misalignment accruing 3 dB of excess loss."""
        d = self.beam_diameter_at(range_m)
        if self.diverging:
            return self.lateral_width_coeff * d
        slack = max(self.rx_collimator.aperture_m - d, 0.0) / 2.0
        return slack + COLLIMATED_LATERAL_SLACK_M

    def angular_width_rad(self, range_m: float) -> float:
        """Incidence-angle misalignment accruing 3 dB of excess loss."""
        if self.diverging:
            d = self.beam_diameter_at(range_m)
            saturation = d * d / (d * d + ANGULAR_SAT_DIAMETER_M ** 2)
            return self.angular_width_coeff * saturation
        f = self.rx_collimator.focal_length_m
        core = self.rx_collimator.fiber_core_m
        return COLLIMATED_ANGULAR_FACTOR * core / (2.0 * f)


def link_10g_diverging(
        beam_diameter_at_rx_m: float = constants.OPTIMAL_BEAM_DIAMETER_AT_RX_M,
        design_range_m: float = constants.LINK_RANGE_NOMINAL_M) -> LinkDesign:
    """The paper's main 10G design: diverging beam, 16 mm at RX."""
    divergence = divergence_for_diameter(
        beam_diameter_at_rx_m, design_range_m, LAUNCH_WAIST_DIAMETER_M)
    beam = GaussianBeam(LAUNCH_WAIST_DIAMETER_M, divergence,
                        wavelength_m=constants.SFP_10G_WAVELENGTH_NM * 1e-9)
    return LinkDesign(
        name=f"10G diverging ({beam_diameter_at_rx_m * 1e3:.0f}mm at RX)",
        sfp=SFP_10G_ZR,
        amplifier=Amplifier(constants.AMPLIFIER_GAIN_DB),
        beam=beam,
        rx_collimator=F810FC_1550,
        design_range_m=design_range_m,
        fixed_loss_db=FIXED_LOSS_10G_DIVERGING_DB,
        lateral_width_coeff=LATERAL_WIDTH_COEFF_10G,
        angular_width_coeff=ANGULAR_WIDTH_COEFF_10G,
        diverging=True,
    )


def link_10g_collimated(
        beam_diameter_m: float = 20e-3,
        design_range_m: float = constants.LINK_RANGE_NOMINAL_M) -> LinkDesign:
    """Table 1's alternative: a wide collimated beam via a beam expander."""
    wavelength = constants.SFP_10G_WAVELENGTH_NM * 1e-9
    probe = GaussianBeam(beam_diameter_m, 0.0, wavelength)
    beam = GaussianBeam(beam_diameter_m,
                        probe.diffraction_limited_divergence_rad, wavelength)
    return LinkDesign(
        name=f"10G collimated ({beam_diameter_m * 1e3:.0f}mm)",
        sfp=SFP_10G_ZR,
        amplifier=Amplifier(constants.AMPLIFIER_GAIN_DB),
        beam=beam,
        rx_collimator=F810FC_1550,
        design_range_m=design_range_m,
        fixed_loss_db=FIXED_LOSS_10G_COLLIMATED_DB,
        lateral_width_coeff=0.0,   # unused for collimated profiles
        angular_width_coeff=0.0,   # unused for collimated profiles
        diverging=False,
    )


def link_25g(
        beam_diameter_at_rx_m: float = constants.OPTIMAL_BEAM_DIAMETER_AT_RX_M,
        design_range_m: float = constants.LINK_RANGE_NOMINAL_M) -> LinkDesign:
    """The 25G prototype: SFP28 with adjustable-focus C40FC collimators."""
    divergence = divergence_for_diameter(
        beam_diameter_at_rx_m, design_range_m, LAUNCH_WAIST_DIAMETER_M)
    beam = GaussianBeam(LAUNCH_WAIST_DIAMETER_M, divergence,
                        wavelength_m=constants.SFP_25G_WAVELENGTH_NM * 1e-9)
    return LinkDesign(
        name="25G diverging (C40FC)",
        sfp=SFP28_LR,
        amplifier=Amplifier(constants.AMPLIFIER_GAIN_DB),
        beam=beam,
        rx_collimator=C40FC_C,
        design_range_m=design_range_m,
        fixed_loss_db=FIXED_LOSS_25G_DB,
        lateral_width_coeff=LATERAL_WIDTH_COEFF_25G,
        angular_width_coeff=ANGULAR_WIDTH_COEFF_25G,
        diverging=True,
    )
