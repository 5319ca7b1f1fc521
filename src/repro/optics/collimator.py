"""Collimators: the capture optics.

The prototype (Appendix A) receives through:

* ``F810FC-1550`` fixed collimator at RX (21 mm clear aperture,
  f = 37.13 mm) capturing into a 50 um multimode fiber;
* ``C40FC-C`` adjustable-focus collimators for the 25G link, which buy a
  2-3 dB coupling improvement.

Its launch optics (a ``CFC-2X-C`` adjustable collimator, a ``BE02-05-C``
beam expander for the wide collimated option) are modelled directly as
the :class:`repro.optics.GaussianBeam` each link design launches.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Collimator:
    """A fiber-coupled collimating lens.

    ``aperture_m`` is the clear aperture; ``focal_length_m`` and
    ``fiber_core_m`` set how an arriving beam focuses onto the fiber
    tip, which drives angular coupling sensitivity downstream.
    """

    name: str
    aperture_m: float
    focal_length_m: float
    fiber_core_m: float

    def __post_init__(self) -> None:
        if min(self.aperture_m, self.focal_length_m, self.fiber_core_m) <= 0:
            raise ValueError("all collimator dimensions must be positive")


# Catalogue entries used by the prototype, dimensions from datasheets.
F810FC_1550 = Collimator(
    name="F810FC-1550", aperture_m=21e-3, focal_length_m=37.13e-3,
    fiber_core_m=50e-6)
C40FC_C = Collimator(
    name="C40FC-C", aperture_m=40e-3, focal_length_m=40.0e-3,
    fiber_core_m=50e-6)
