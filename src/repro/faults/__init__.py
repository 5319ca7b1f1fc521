"""Deterministic fault injection for the closed-loop link.

Seeded fault models (:mod:`~repro.faults.models`), the injection
wrappers the session loop drives them through
(:mod:`~repro.faults.inject`), and the structured event log + derived
robustness metrics (:mod:`~repro.faults.events`).  The chaos sweep
harness lives in :mod:`repro.faults.chaos`, imported directly (not
re-exported here) because it depends on :mod:`repro.simulate`, which
in turn depends on this package.
"""

from .events import (
    EventLog,
    FaultMetrics,
    SessionEvent,
    derive_metrics,
    down_spells,
)
from .inject import FaultInjector, NullInjector
from .models import (
    AttenuationRamp,
    ChannelBlockage,
    CommandJitter,
    CommandLoss,
    GalvoSaturation,
    StuckMirror,
    TrackerDrift,
    TrackerDropout,
    TrackerFreeze,
    TrackerOutlierBurst,
    poisson_windows,
)

__all__ = [
    "AttenuationRamp",
    "ChannelBlockage",
    "CommandJitter",
    "CommandLoss",
    "EventLog",
    "FaultInjector",
    "FaultMetrics",
    "GalvoSaturation",
    "NullInjector",
    "SessionEvent",
    "StuckMirror",
    "TrackerDrift",
    "TrackerDropout",
    "TrackerFreeze",
    "TrackerOutlierBurst",
    "derive_metrics",
    "down_spells",
    "poisson_windows",
]
