"""Multi-wavelength (40G+) link designs: the Section 6 future work.

"For higher-bandwidth (40Gbps+) links, our designed TP mechanism
remains unchanged; however, the link would likely need customized
collimators that can efficiently capture a range of wavelengths
because the high-bandwidth single-strand transceivers use multiple
wavelengths."

A QSFP+ single-strand 40G module carries four 10G lanes on CWDM
wavelengths (1271/1291/1311/1331 nm).  A commodity collimator is
optimized for one wavelength; chromatic focal shift costs the outer
lanes extra coupling loss, and the *link* is only up when every lane's
budget closes.  This module quantifies that, including the paper's
proposed fix (an achromatic custom collimator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..optics import tolerance
from .design import LinkDesign, link_25g

#: CWDM4 lane grid used by single-strand 40G/100G transceivers (nm).
CWDM4_WAVELENGTHS_NM = (1271.0, 1291.0, 1311.0, 1331.0)

#: Chromatic excess coupling loss of a commodity singlet-based
#: collimator, per nm of offset from its design wavelength.  A few
#: dB across the CWDM band matches focal-shift arithmetic for an
#: f ~ 40 mm singlet coupling into a 50 um core.
COMMODITY_CHROMATIC_DB_PER_NM = 0.12

#: An achromatic (doublet / custom) collimator holds the focus across
#: the band -- the paper's "customized collimators" fix.
CUSTOM_CHROMATIC_DB_PER_NM = 0.015


@dataclass(frozen=True)
class MultiWavelengthDesign:
    """A 4-lane single-strand design on top of a base link design.

    The base design supplies the geometry and coupling widths; lanes
    differ only in their chromatic penalty.
    ``design_wavelength_nm`` is where the collimator focus is perfect.
    """

    name: str
    base: LinkDesign
    lane_wavelengths_nm: Tuple[float, ...] = CWDM4_WAVELENGTHS_NM
    design_wavelength_nm: float = 1301.0  # band center
    chromatic_db_per_nm: float = COMMODITY_CHROMATIC_DB_PER_NM

    def __post_init__(self) -> None:
        if len(self.lane_wavelengths_nm) == 0:
            raise ValueError("lane_wavelengths_nm must name at least "
                             "one lane")
        for wavelength in (*self.lane_wavelengths_nm,
                           self.design_wavelength_nm):
            if not (math.isfinite(wavelength) and wavelength > 0):
                raise ValueError("wavelengths must be finite and "
                                 f"positive, got {wavelength!r}")
        if not (math.isfinite(self.chromatic_db_per_nm)
                and self.chromatic_db_per_nm >= 0):
            # A negative penalty would hand every lane more margin
            # than the single-wavelength base design has.
            raise ValueError("chromatic_db_per_nm must be finite and "
                             f">= 0, got {self.chromatic_db_per_nm!r}")

    def chromatic_loss_db(self, wavelength_nm: float) -> float:
        """Extra coupling loss of a lane at ``wavelength_nm``."""
        offset = abs(wavelength_nm - self.design_wavelength_nm)
        return self.chromatic_db_per_nm * offset

    def worst_lane_margin_db(self, range_m: Optional[float] = None) -> float:
        """The binding lane's margin -- the whole link's headroom."""
        if range_m is None:
            range_m = self.base.design_range_m
        return self.base.margin_db(range_m) - max(
            self.chromatic_loss_db(wl) for wl in self.lane_wavelengths_nm)

    def worst_lane_angular_tolerance_rad(
            self, range_m: Optional[float] = None) -> float:
        """RX angular tolerance with the binding lane's margin.

        The chromatic penalty does not just shave static budget -- it
        shrinks the margin that movement tolerance is made of, so a
        commodity-collimator 40G link is *more fragile under motion*
        even where it is statically feasible.
        """
        if range_m is None:
            range_m = self.base.design_range_m
        return tolerance(self.worst_lane_margin_db(range_m),
                         self.base.lateral_width_m(range_m),
                         self.base.angular_width_rad(range_m), 0.0, 1.0)


def link_40g_commodity(base: Optional[LinkDesign] = None) -> MultiWavelengthDesign:
    """A 40G CWDM4 design with commodity (chromatic) collimators."""
    return MultiWavelengthDesign(
        name="40G CWDM4, commodity collimators",
        base=base if base is not None else link_25g())


def link_40g_custom(base: Optional[LinkDesign] = None) -> MultiWavelengthDesign:
    """The Section 6 fix: achromatic custom collimators."""
    return MultiWavelengthDesign(
        name="40G CWDM4, custom achromatic collimators",
        base=base if base is not None else link_25g(),
        chromatic_db_per_nm=CUSTOM_CHROMATIC_DB_PER_NM)
