"""Ceiling-deployment coverage planning (the Section 3 deployment
story).

"To maintain clear LOS, we envision affixing the TX on the ceiling...
To circumvent occasional occlusions and/or limited field-of-view
coverage of the GMs, we can use multiple TXs on the ceiling."  This
module answers the planning questions that raises: given a room, a GM
coverage cone, and a link-budget range limit, which floor positions
does a TX serve, how many TXs does a room need, and where should they
go?
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np



@dataclass(frozen=True)
class Room:
    """A rectangular play space."""

    width_m: float
    depth_m: float
    ceiling_height_m: float = 2.6
    head_height_m: float = 1.5

    def __post_init__(self):
        if not all(0 < size < math.inf
                   for size in (self.width_m, self.depth_m)):
            raise ValueError("room dimensions must be positive and finite")
        if not self.head_height_m < self.ceiling_height_m < math.inf:
            raise ValueError("ceiling must be above head height")

    @property
    def vertical_gap_m(self) -> float:
        return self.ceiling_height_m - self.head_height_m

    def grid(self, resolution_m: float = 0.1) -> np.ndarray:
        """(n, 2) head positions covering the floor plan."""
        xs = np.arange(resolution_m / 2, self.width_m, resolution_m)
        ys = np.arange(resolution_m / 2, self.depth_m, resolution_m)
        return np.array([[x, y] for x in xs for y in ys])


@dataclass(frozen=True)
class CoverageConstraints:
    """What limits a single TX's service area."""

    # The GM coverage cone: +/-10 V at 2 optical degrees per volt.
    cone_half_angle_rad: float = math.radians(20.0)
    # Link budget bounds on range (Section 5.1's 1.5-2 m prototype
    # stretches a little in deployment; power falls with range).
    max_range_m: float = 2.5
    min_range_m: float = 0.2


def tx_covers(tx_xy, head_xy, room: Room,
              constraints: CoverageConstraints) -> bool:
    """Can a ceiling TX at ``tx_xy`` serve a head at ``head_xy``?

    The TX's rest beam points straight down; the GM must steer to the
    head within its cone, and the range must close the link budget.
    The RX side is symmetric (its own GM re-aims continuously), so the
    TX cone and range are the binding constraints.
    """
    tx = np.asarray(tx_xy, dtype=float)
    head = np.asarray(head_xy, dtype=float)
    lateral = float(np.linalg.norm(head - tx))
    vertical = room.vertical_gap_m
    range_m = math.hypot(lateral, vertical)
    if not constraints.min_range_m <= range_m <= constraints.max_range_m:
        return False
    angle = math.atan2(lateral, vertical)
    return angle <= constraints.cone_half_angle_rad


@dataclass
class CoveragePlan:
    """TX positions and the resulting floor coverage."""

    room: Room
    constraints: CoverageConstraints
    tx_positions: List[Tuple[float, float]] = field(default_factory=list)

    def coverage_mask(self, resolution_m: float = 0.1) -> np.ndarray:
        """Boolean per grid point: served by at least one TX."""
        grid = self.room.grid(resolution_m)
        mask = np.zeros(len(grid), dtype=bool)
        for tx in self.tx_positions:
            mask |= np.array([
                tx_covers(tx, head, self.room, self.constraints)
                for head in grid])
        return mask

    def coverage_fraction(self, resolution_m: float = 0.1) -> float:
        """Fraction of the floor plan served."""
        mask = self.coverage_mask(resolution_m)
        if mask.size == 0:
            return 0.0
        return float(np.mean(mask))

    def redundancy_fraction(self, resolution_m: float = 0.1) -> float:
        """Fraction served by >= 2 TXs (where handover can help)."""
        grid = self.room.grid(resolution_m)
        counts = np.zeros(len(grid), dtype=int)
        for tx in self.tx_positions:
            counts += np.array([
                tx_covers(tx, head, self.room, self.constraints)
                for head in grid], dtype=int)
        if counts.size == 0:
            return 0.0
        return float(np.mean(counts >= 2))


def service_radius_m(room: Room,
                     constraints: CoverageConstraints) -> float:
    """Lateral radius one ceiling TX serves (cone and range bound)."""
    by_cone = room.vertical_gap_m * math.tan(
        constraints.cone_half_angle_rad)
    range_sq = constraints.max_range_m ** 2 - room.vertical_gap_m ** 2
    by_range = math.sqrt(range_sq) if range_sq > 0 else 0.0
    return min(by_cone, by_range)


def plan_greedy(room: Room,
                constraints: CoverageConstraints = CoverageConstraints(),
                target_fraction: float = 0.95,
                resolution_m: float = 0.15,
                max_txs: int = 64) -> CoveragePlan:
    """Greedy TX placement until the target coverage is met.

    Repeatedly places a TX over the grid point that covers the most
    currently-unserved head positions -- the standard greedy set-cover
    heuristic, within a ln(n) factor of optimal.
    """
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target fraction must be in (0, 1]")
    grid = room.grid(resolution_m)
    uncovered = np.ones(len(grid), dtype=bool)
    plan = CoveragePlan(room=room, constraints=constraints)
    candidates = grid  # TXs may sit over any head position
    # Precompute pairwise service (candidates x heads).
    radius = service_radius_m(room, constraints)
    deltas = candidates[:, None, :] - grid[None, :, :]
    distances = np.linalg.norm(deltas, axis=2)
    serves = distances <= radius
    while np.mean(~uncovered) < target_fraction:
        gains = serves[:, uncovered].sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0 or len(plan.tx_positions) >= max_txs:
            break
        plan.tx_positions.append((float(candidates[best, 0]),
                                  float(candidates[best, 1])))
        uncovered &= ~serves[best]
    return plan
