"""Optical power units: dBm-to-milliwatt conversion.

All link-budget math in the paper is in dBm/dB; the eye-safety limits
are in milliwatts.
"""

from __future__ import annotations


def dbm_to_mw(dbm: float) -> float:
    """Convert power in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)
