"""Drift detection and mapping-only re-training (Section 4).

"In case of re-deployment or VRH-T drift, the only re-training
(calibration) that needs to be re-done is the mapping step."  That is
one of the design's selling points: the expensive K-space board
calibration is factory work, done once per unit; the cheap 30-sample
mapping fit is all a home deployment ever repeats.

This module provides both halves of that story:

* :class:`DriftMonitor` -- watches post-realignment received power and
  flags when it degrades persistently below a threshold (the signature
  of VRH-T drift or a bumped mount);
* :func:`remap` -- re-runs *only* Section 4.2 against fresh aligned
  samples, reusing the existing K-space models.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .mapping import AlignedSample, fit_mapping
from .system import LearnedSystem


@dataclass
class DriftMonitor:
    """Flags persistent post-TP power degradation.

    Feed it the received power observed right after each realignment;
    it trips when the rolling median falls more than
    ``degradation_db`` below the baseline established at deployment.
    """

    degradation_db: float = 6.0
    window: int = 25
    baseline_samples: int = 25

    def __post_init__(self) -> None:
        if self.degradation_db <= 0:
            raise ValueError("degradation threshold must be positive")
        if self.window < 3 or self.baseline_samples < 3:
            raise ValueError("windows need at least 3 samples")
        self._baseline: List[float] = []
        self._recent = deque(maxlen=self.window)

    @property
    def baseline_dbm(self) -> Optional[float]:
        """Median post-TP power at deployment (None while learning)."""
        if len(self._baseline) < self.baseline_samples:
            return None
        return float(np.median(self._baseline))

    def observe(self, post_tp_power_dbm: float) -> bool:
        """Feed one observation; returns True when drift is flagged."""
        if len(self._baseline) < self.baseline_samples:
            self._baseline.append(float(post_tp_power_dbm))
            return False
        self._recent.append(float(post_tp_power_dbm))
        if len(self._recent) < self.window:
            return False
        recent = float(np.median(self._recent))
        return recent < self.baseline_dbm - self.degradation_db

    def reset(self) -> None:
        """Forget everything (call after a successful re-training)."""
        self._baseline.clear()
        self._recent.clear()


def remap(system: LearnedSystem,
          fresh_samples: List[AlignedSample]) -> LearnedSystem:
    """Section 4.2 only: refit the 12 mapping parameters.

    The existing system's K-space models are reused untouched (they
    describe the physical units, which did not change); its current
    mapping parameters seed the fit, so a small drift converges in a
    few optimizer steps.
    """
    # The TX's previous VR placement is already baked into
    # tx_model_vr, so the refit treats *that* as the base model and
    # fits a correction starting from identity; the RX side seeds from
    # its current mapping.  A small drift therefore converges in a few
    # optimizer steps.
    from ..geometry import RigidTransform
    seed = np.concatenate([
        RigidTransform.identity().to_params(),
        system.rx_mapping.to_params(),
    ])
    return fit_mapping(system.tx_model_vr, system.rx_model_kspace,
                       fresh_samples, seed)
