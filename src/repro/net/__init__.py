"""Network-measurement substrate: iperf-style throughput metering."""

from .iperf import ThroughputMeter, ThroughputWindow

__all__ = [
    "ThroughputMeter",
    "ThroughputWindow",
]
