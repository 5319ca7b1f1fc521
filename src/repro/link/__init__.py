"""End-to-end FSO link: designs, channel physics, link-layer state."""

from .channel import AlignmentState, FsoChannel
from .design import (
    NOISE_FLOOR_DBM,
    LinkDesign,
    link_10g_collimated,
    link_10g_diverging,
    link_25g,
)
from .multiwavelength import (
    CWDM4_WAVELENGTHS_NM,
    MultiWavelengthDesign,
    link_40g_commodity,
    link_40g_custom,
)
from .state import LinkStateMachine
from .tolerance import (
    ToleranceReport,
    diameter_sweep,
    evaluate,
    lateral_tolerance_m,
    rx_angular_tolerance_rad,
    tx_angular_tolerance_rad,
)

__all__ = [
    "AlignmentState",
    "FsoChannel",
    "LinkDesign",
    "LinkStateMachine",
    "MultiWavelengthDesign",
    "CWDM4_WAVELENGTHS_NM",
    "link_40g_commodity",
    "link_40g_custom",
    "NOISE_FLOOR_DBM",
    "ToleranceReport",
    "diameter_sweep",
    "evaluate",
    "lateral_tolerance_m",
    "link_10g_collimated",
    "link_10g_diverging",
    "link_25g",
    "rx_angular_tolerance_rad",
    "tx_angular_tolerance_rad",
]
