"""Evaluation harnesses: the testbed, live sessions, and trace replay."""

from .availability import AvailabilityReport, report, simulate_dataset
from .batch import BatchTimeslotResult, simulate_batch, simulate_trace
from .clustering import ClusteringReport, analyze
from .handover import (
    HandoverController,
    HandoverResult,
    MultiTxRig,
    OcclusionEvent,
)
from .montecarlo import calibration_quality
from .rig import CalibrationOutcome, Testbed
from .scenarios import SCENARIOS, Scenario, get_scenario, list_scenarios
from .session import PrototypeSession, SessionResult, surviving_speed_threshold
from .timeslot import TimeslotParams, TimeslotResult

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
    "TimeslotResult",
    "analyze",
    "calibration_quality",
    "get_scenario",
    "list_scenarios",
    "report",
    "simulate_batch",
    "simulate_dataset",
    "simulate_trace",
    "surviving_speed_threshold",
]
