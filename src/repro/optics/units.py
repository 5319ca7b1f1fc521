"""Optical power units: the dBm floor and dBm-to-milliwatt conversion.

All link-budget math in the paper is in dBm/dB; the eye-safety limits
are in milliwatts.
"""

from __future__ import annotations

#: Received power reported for no light at all: a fully blocked beam is
#: "no light", not an error.
MIN_POWER_DBM = -200.0


def dbm_to_mw(dbm: float) -> float:
    """Convert power in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)
