"""Motion substrate: stages, profiles, hand motion, traces, speeds."""

from .arbitrary import HandheldProfile
from .profiles import (
    AngularStrokeProfile,
    LinearStrokeProfile,
    StaticProfile,
    StrokeSchedule,
)
from .rail import LinearRail
from .rotation_stage import RotationStage
from .vibration import VibrationOverlay
from .speeds import SpeedSeries, cdf, measure_profile, measure_trace, percentile
from .traces import NORMAL_USE, VIDEO_360, HeadTrace, TraceProfile
from .batch import TraceBatch, generate_batch, generate_trace

__all__ = [
    "AngularStrokeProfile",
    "HandheldProfile",
    "HeadTrace",
    "LinearRail",
    "LinearStrokeProfile",
    "NORMAL_USE",
    "RotationStage",
    "SpeedSeries",
    "StaticProfile",
    "StrokeSchedule",
    "TraceBatch",
    "TraceProfile",
    "VibrationOverlay",
    "VIDEO_360",
    "cdf",
    "generate_batch",
    "generate_trace",
    "measure_profile",
    "measure_trace",
    "percentile",
]
