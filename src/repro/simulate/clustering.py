"""Off-slot clustering analysis (Section 5.4's user-experience metric).

"To measure user experience, we can measure how clustered/scattered the
off-timeslots are, since widely scattered off-timeslots should have
minimal impact" -- the paper reports that most (>60 %) off-slots occur
in frames (30 contiguous slots) with fewer than 10 off-slots.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .. import constants
from .batch import BatchTimeslotResult


@dataclass(frozen=True)
class ClusteringReport:
    """How off-slots distribute over fixed-size frames."""

    frame_slots: int
    off_slot_total: int
    off_per_frame_histogram: np.ndarray  # index = off-slots in frame

    def fraction_in_frames_below(self, threshold: int) -> float:
        """Fraction of off-slots living in frames with < threshold offs.

        The paper's headline: >60 % of off-slots are in frames with
        fewer than 10 off-slots.
        """
        if self.off_slot_total == 0:
            return 1.0
        counts = np.arange(self.off_per_frame_histogram.size)
        weighted = counts * self.off_per_frame_histogram
        return float(weighted[:threshold].sum() / self.off_slot_total)


def analyze(result: BatchTimeslotResult,
            frame_slots: int = constants.TRACE_FRAME_SLOTS
            ) -> ClusteringReport:
    """Histogram off-slots by how many share their frame.

    Frames tile each trace from its first slot; a trailing partial
    frame is not counted.
    """
    if frame_slots <= 0:
        raise ValueError("frame size must be positive")
    n_frames = result.slots // frame_slots
    off = ~result.connected[:, :n_frames * frame_slots]
    per_frame = off.reshape(len(result), n_frames, frame_slots).sum(axis=2)
    histogram = np.bincount(per_frame.ravel(), minlength=frame_slots + 1)
    return ClusteringReport(frame_slots=frame_slots,
                            off_slot_total=int(per_frame.sum()),
                            off_per_frame_histogram=histogram)
