"""Frame transport over a time-varying link.

Feeds a video's frame sequence through a per-slot capacity series (as
produced by the live session or the Section 5.4 trace replay): each
frame becomes available at its render time, transmits at the link's
current capacity, and is late when it is not fully delivered before
its display deadline.  This converts the link-level off-slots of
Section 5.4 into the frame-level impact the paper's user-experience
paragraph reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .video import VideoFormat


@dataclass(frozen=True)
class FrameOutcome:
    """Delivery record for one frame."""

    index: int
    render_time_s: float
    delivered_time_s: float  # inf when never delivered in the run
    deadline_s: float

    @property
    def late(self) -> bool:
        return self.delivered_time_s > self.deadline_s

    @property
    def latency_s(self) -> float:
        return self.delivered_time_s - self.render_time_s


@dataclass(frozen=True)
class StreamReport:
    """Aggregate frame-delivery quality of one run."""

    outcomes: List[FrameOutcome]
    slot_s: float

    @property
    def frames(self) -> int:
        return len(self.outcomes)

    @property
    def late_frames(self) -> int:
        return sum(1 for o in self.outcomes if o.late)

    @property
    def late_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.late_frames / self.frames

    def latency_percentile_s(self, q: float) -> float:
        """Delivery-latency percentile over frames that arrived."""
        latencies = [o.latency_s for o in self.outcomes
                     if np.isfinite(o.delivered_time_s)]
        if not latencies:
            return float("inf")
        return float(np.percentile(latencies, q))

    def longest_late_burst(self) -> int:
        """Longest run of consecutive late frames (stutter length)."""
        longest = current = 0
        for outcome in self.outcomes:
            current = current + 1 if outcome.late else 0
            longest = max(longest, current)
        return longest


def stream_over_link(video: VideoFormat, link_up: np.ndarray,
                     slot_s: float, capacity_gbps: float,
                     compression_ratio: float = 1.0,
                     codec_latency_s: float = 0.0,
                     deadline_frames: float = 1.0) -> StreamReport:
    """Deliver ``video`` over a slotted link-state series.

    ``link_up`` is the per-slot boolean connectivity (from
    ``SessionResult.link_up`` or a row of
    ``BatchTimeslotResult.connected``);
    ``capacity_gbps`` the goodput while up.  ``compression_ratio`` and
    ``codec_latency_s`` model a codec (encode + decode) when raw
    streaming does not fit; ``deadline_frames`` is the display budget
    in frame periods, measured from render completion.
    """
    if slot_s <= 0 or capacity_gbps <= 0:
        raise ValueError("slot length and capacity must be positive")
    frame_period = 1.0 / video.fps
    frame_bits = video.bits_per_frame / compression_ratio
    bits_per_slot = capacity_gbps * 1e9 * slot_s
    total_slots = len(link_up)

    outcomes = []
    pending: List[list] = []  # [index, render_time, remaining_bits]
    next_frame = 0
    # Iterate slots, injecting frames as their render times pass.
    for slot in range(total_slots):
        now = (slot + 1) * slot_s
        while next_frame * frame_period + codec_latency_s <= now:
            render = next_frame * frame_period
            pending.append([next_frame, render,
                            frame_bits])
            next_frame += 1
            if next_frame * frame_period > total_slots * slot_s:
                break
        budget = bits_per_slot if link_up[slot] else 0.0
        while budget > 0 and pending:
            head = pending[0]
            sent = min(budget, head[2])
            head[2] -= sent
            budget -= sent
            if head[2] <= 0:
                index, render, _ = pending.pop(0)
                outcomes.append(FrameOutcome(
                    index=index, render_time_s=render,
                    delivered_time_s=now,
                    deadline_s=render + codec_latency_s
                    + deadline_frames * frame_period))
    # Frames still pending never made it within the run.  Those whose
    # deadline already passed are genuinely late; frames whose deadline
    # lies beyond the run's end are undecided and excluded.
    run_end = total_slots * slot_s
    for index, render, _ in pending:
        deadline = (render + codec_latency_s
                    + deadline_frames * frame_period)
        if deadline > run_end:
            continue
        outcomes.append(FrameOutcome(
            index=index, render_time_s=render,
            delivered_time_s=float("inf"),
            deadline_s=deadline))
    outcomes.sort(key=lambda o: o.index)
    return StreamReport(outcomes=outcomes, slot_s=slot_s)


def motion_to_photon_s(tracking_latency_s: float,
                       render_latency_s: float,
                       transmission_latency_s: float,
                       codec_latency_s: float = 0.0,
                       display_latency_s: float = 0.011) -> float:
    """The motion-to-photon budget (Section 2.1's latency argument).

    Raw streaming keeps ``codec_latency_s`` at zero -- the reason the
    paper wants tens-of-Gbps links instead of compression.
    """
    parts = (tracking_latency_s, render_latency_s,
             transmission_latency_s, codec_latency_s, display_latency_s)
    if any(p < 0 for p in parts):
        raise ValueError("latencies cannot be negative")
    return float(sum(parts))
