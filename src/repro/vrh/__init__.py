"""Headset substrate: the built-in tracker and the TX/RX assemblies."""

from .headset import RxAssembly, TxAssembly
from .tracker import VrhTracker

__all__ = [
    "RxAssembly",
    "TxAssembly",
    "VrhTracker",
]
