"""Galvo-mirror hardware substrate: specs, geometry, DAQ, ground truth."""

from .daq import Daq
from .galvo import CoverageError, GalvoHardware
from .mirror import GmaParams, canonical_gma, trace
from .specs import GVS102, GalvoSpec

__all__ = [
    "CoverageError",
    "Daq",
    "GVS102",
    "GalvoHardware",
    "GalvoSpec",
    "GmaParams",
    "canonical_gma",
    "trace",
]
