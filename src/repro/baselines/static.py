"""Baseline: a static (no tracking-and-pointing) FSO link.

The zeroth-order comparison point: align once, never steer again.  The
link then lives or dies purely on the optical movement tolerance --
which is exactly why the paper needs a TP mechanism at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from ..simulate.rig import Testbed


@dataclass(frozen=True)
class StaticRunResult:
    """Connectivity of a never-steered link under motion."""

    sample_times_s: np.ndarray
    connected: np.ndarray

    @property
    def uptime_fraction(self) -> float:
        if self.connected.size == 0:
            return 0.0
        return float(np.mean(self.connected))


def run_static(testbed: Testbed, profile,
               duration_s: float = None) -> StaticRunResult:
    """Replay a motion profile with the GMs frozen at the start pose.

    The link is exhaustively aligned for the profile's initial pose,
    then the mirrors never move again.  No SFP re-lock modelling is
    needed: we report raw signal-present connectivity, the most
    charitable possible reading for this baseline.  The channel is
    sampled every 1 ms slot.
    """
    if duration_s is None:
        duration_s = profile.duration_s
    testbed.align_exhaustively(profile.pose_at(0.0))
    dt_s = constants.SLOT_S
    steps = int(round(duration_s / dt_s))
    times = np.arange(1, steps + 1) * dt_s
    connected = np.empty(steps, dtype=bool)
    for i, t in enumerate(times):
        state = testbed.channel.evaluate(profile.pose_at(float(t)))
        connected[i] = state.connected
    return StaticRunResult(sample_times_s=times, connected=connected)
