"""Model-accuracy metrics (Table 2).

Stage-1 errors compare a fitted K-space model's predicted board hits
against fresh measurements (:func:`repro.core.kspace.evaluate_fit`).
Combined (stage-1 + stage-2) errors compare the learned VR-space
models' predicted beams against the true physical beams: the metric is
the perpendicular miss distance between the predicted beam line and
where the real beam actually is at link range, in millimeters --
exactly the quantity whose 2-4 mm magnitude the paper matches against
the link's movement tolerance (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..geometry import Vec3, as_vec3, normalize


@dataclass(frozen=True)
class ErrorSummary:
    """Average and maximum of a set of errors, in meters."""

    label: str
    average_m: float
    maximum_m: float
    count: int

    @property
    def average_mm(self) -> float:
        return self.average_m * 1e3

    @property
    def maximum_mm(self) -> float:
        return self.maximum_m * 1e3


def beam_error_m(predicted: Tuple[Vec3, Vec3], truth: Tuple[Vec3, Vec3],
                 eval_range_m: float) -> float:
    """Miss distance of a predicted beam at the far end of the link.

    Measures how far the predicted beam line passes from the point the
    *true* beam reaches at ``eval_range_m`` -- i.e. if the pointing
    mechanism trusted the prediction, by how much would it misplace the
    beam at the other terminal.  Both beams are ``(origin, direction)``
    pairs; their directions are normalized here.
    """
    if eval_range_m <= 0:
        raise ValueError("evaluation range must be positive")
    target = as_vec3(truth[0]) + float(eval_range_m) * normalize(truth[1])
    origin = as_vec3(predicted[0])
    direction = normalize(predicted[1])
    along = float(np.dot(target - origin, direction))
    return float(np.linalg.norm(target - (origin + along * direction)))


def summarize(label: str, errors: Sequence[float]) -> ErrorSummary:
    """Average/max rollup for one Table 2 row."""
    values = np.asarray(list(errors), dtype=float)
    if values.size == 0:
        raise ValueError("no errors to summarize")
    return ErrorSummary(label=label,
                        average_m=float(values.mean()),
                        maximum_m=float(values.max()),
                        count=int(values.size))
