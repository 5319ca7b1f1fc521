"""Evaluation harnesses: the testbed, live sessions, and trace replay."""

from .availability import AvailabilityReport, report
from .batch import BatchTimeslotResult, simulate_batch
from .clustering import ClusteringReport, analyze
from .handover import (
    HandoverController,
    HandoverResult,
    MultiTxRig,
    OcclusionEvent,
)
from .montecarlo import calibration_quality, realign_trials
from .rig import CalibrationOutcome, Testbed
from .scenarios import SCENARIOS, Scenario, get_scenario, list_scenarios
from .session import PrototypeSession, SessionResult, surviving_speed_threshold
from .timeslot import TimeslotParams

__all__ = [
    "AvailabilityReport",
    "BatchTimeslotResult",
    "CalibrationOutcome",
    "ClusteringReport",
    "HandoverController",
    "HandoverResult",
    "MultiTxRig",
    "OcclusionEvent",
    "PrototypeSession",
    "SCENARIOS",
    "Scenario",
    "SessionResult",
    "Testbed",
    "TimeslotParams",
    "analyze",
    "calibration_quality",
    "get_scenario",
    "list_scenarios",
    "realign_trials",
    "report",
    "simulate_batch",
    "surviving_speed_threshold",
]
