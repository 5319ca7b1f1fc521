"""Headset substrate: the built-in tracker and the RX assembly.

:class:`Pose` (the headset's placement) lives in :mod:`repro.geometry`;
it is re-exported here, the same class, for headset-side callers.
"""

from ..geometry import Pose, speeds_between
from .headset import RxAssembly, TxAssembly
from .tracker import VrhTracker

__all__ = [
    "Pose",
    "RxAssembly",
    "TxAssembly",
    "VrhTracker",
    "speeds_between",
]
