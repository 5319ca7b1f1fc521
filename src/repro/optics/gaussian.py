"""Gaussian-beam propagation.

The link design (Section 5.1) chooses between a wide collimated beam and
a diverging beam sized to a target diameter at the receiver.  Both are
Gaussian beams; this module gives diameter-at-range, divergence, and the
divergence needed to reach a given diameter at a given range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_positive_range(range_m: float) -> None:
    if not 0 < range_m < math.inf:
        raise ValueError(
            f"range must be finite and positive, got {range_m!r}")


@dataclass(frozen=True)
class GaussianBeam:
    """A Gaussian beam leaving the transmitter collimator.

    ``waist_diameter_m`` is the 1/e^2 intensity diameter at the launch
    aperture; ``divergence_rad`` is the *half-angle* far-field divergence.
    A collimated beam has divergence near the diffraction limit; the
    adjustable collimator dials in a larger divergence on purpose.
    """

    waist_diameter_m: float
    divergence_rad: float
    wavelength_m: float = 1550e-9

    def __post_init__(self) -> None:
        if self.waist_diameter_m <= 0:
            raise ValueError("waist diameter must be positive")
        if self.divergence_rad < 0:
            raise ValueError("divergence cannot be negative")
        if self.wavelength_m <= 0:
            raise ValueError("wavelength must be positive")

    @property
    def diffraction_limited_divergence_rad(self) -> float:
        """Half-angle divergence floor ``lambda / (pi w0)`` for this waist."""
        waist_radius = self.waist_diameter_m / 2.0
        return self.wavelength_m / (math.pi * waist_radius)

    def diameter_at(self, range_m: float) -> float:
        """1/e^2 beam diameter after propagating ``range_m``.

        Uses the hyperbolic Gaussian profile
        ``d(z) = sqrt(d0^2 + (2 theta z)^2)`` which is exact in the
        far field and a safe upper bound near the waist.  A range
        outside ``[0, inf)`` (NaN included) raises ``ValueError``.
        """
        if not 0 <= range_m < math.inf:
            raise ValueError(
                f"range must be finite and non-negative, got {range_m!r}")
        spread = 2.0 * self.divergence_rad * range_m
        return math.hypot(self.waist_diameter_m, spread)

    @property
    def effective_rayleigh_range_m(self) -> float:
        """Distance over which the beam stays roughly collimated.

        For a deliberately defocused (geometrically diverging) beam this
        is ``waist_radius / divergence``; for a well-collimated beam it
        is large.  Governs the wavefront curvature below.
        """
        if self.divergence_rad <= 0:
            return math.inf
        return (self.waist_diameter_m / 2.0) / self.divergence_rad

    def curvature_radius_m(self, range_m: float) -> float:
        """Wavefront radius of curvature at ``range_m``.

        ``R(z) = z (1 + (zR / z)^2)``.  A strongly diverging beam has
        ``R ~ z`` (rays appear to emanate from the launch point), so a
        receiver translating across the cone sees the arrival direction
        rotate -- the effect that couples linear VRH motion into the
        link's *angular* tolerance budget (Section 5.1).  A collimated
        beam has ``R -> inf``: translation leaves incidence unchanged.
        A range outside ``(0, inf)`` (NaN included) raises ``ValueError``.
        """
        _check_positive_range(range_m)
        zr = self.effective_rayleigh_range_m
        if math.isinf(zr):
            return math.inf
        return range_m * (1.0 + (zr / range_m) ** 2)

    def intensity_fraction_within(self, aperture_diameter_m: float,
                                  range_m: float) -> float:
        """Fraction of total power within a centered circular aperture.

        For a Gaussian beam of 1/e^2 diameter ``d`` a circular aperture of
        diameter ``a`` collects ``1 - exp(-2 a^2 / d^2)``.
        """
        if aperture_diameter_m <= 0:
            return 0.0
        d = self.diameter_at(range_m)
        return 1.0 - math.exp(-2.0 * (aperture_diameter_m / d) ** 2)


def divergence_for_diameter(target_diameter_m: float, range_m: float,
                            waist_diameter_m: float) -> float:
    """Half-angle divergence making the beam ``target_diameter_m`` wide
    at ``range_m``, starting from ``waist_diameter_m`` at the launch.

    This is how the adjustable aspheric collimator is "focused" in the
    prototype: pick the beam diameter at RX, derive the divergence.
    Raises ``ValueError`` when the target is narrower than the waist
    (a passive collimator cannot shrink the far-field beam below it),
    and when ``range_m`` is outside ``(0, inf)``.
    """
    _check_positive_range(range_m)
    if target_diameter_m < waist_diameter_m:
        raise ValueError(
            "target diameter at RX cannot be below the launch waist")
    spread = math.sqrt(target_diameter_m ** 2 - waist_diameter_m ** 2)
    return spread / (2.0 * range_m)
