"""Optics substrate: beams, collimators, the coupling roll-off, SFPs."""

from .amplifier import Amplifier
from .collimator import C40FC_C, Collimator, F810FC_1550
from .coupling import excess_loss_db, tolerance
from .gaussian import GaussianBeam, divergence_for_diameter
from .safety import (
    PUPIL_DIAMETER_M,
    SafetyReport,
    assess_design,
    class1_limit_mw,
    hazard_distance_m,
    is_class1_at,
    power_through_pupil_mw,
)
from .sfp import SFP28_LR, SFP_10G_ZR, Sfp
from .units import dbm_to_mw

__all__ = [
    "Amplifier",
    "C40FC_C",
    "Collimator",
    "F810FC_1550",
    "GaussianBeam",
    "PUPIL_DIAMETER_M",
    "SafetyReport",
    "SFP28_LR",
    "SFP_10G_ZR",
    "Sfp",
    "assess_design",
    "class1_limit_mw",
    "dbm_to_mw",
    "excess_loss_db",
    "hazard_distance_m",
    "is_class1_at",
    "divergence_for_diameter",
    "power_through_pupil_mw",
    "tolerance",
]
