"""Speed measurement and CDFs (Fig. 3, and the x-axes of Figs. 13-15).

The paper characterizes motion by linear and angular speeds measured
over short windows (it plots 50 ms windows for the throughput figures).
These helpers turn any motion profile or trace into windowed speed
series and empirical CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import speeds_between


@dataclass(frozen=True)
class SpeedSeries:
    """Windowed speeds of one motion: parallel time/speed arrays."""

    times_s: np.ndarray
    linear_m_s: np.ndarray
    angular_rad_s: np.ndarray

    @property
    def angular_deg_s(self) -> np.ndarray:
        return np.degrees(self.angular_rad_s)


def measure_profile(profile, window_s: float = 0.05,
                    duration_s: float = None) -> SpeedSeries:
    """Windowed speeds of a ``pose_at(t)`` motion profile."""
    if duration_s is None:
        duration_s = profile.duration_s
    if window_s <= 0 or duration_s <= window_s:
        raise ValueError("need a positive window shorter than the run")
    edges = np.arange(0.0, duration_s, window_s)
    times, linear, angular = [], [], []
    previous = profile.pose_at(0.0)
    for edge in edges[1:]:
        current = profile.pose_at(float(edge))
        lin, ang = speeds_between(previous, current, window_s)
        times.append(edge - window_s / 2.0)
        linear.append(lin)
        angular.append(ang)
        previous = current
    return SpeedSeries(times_s=np.array(times),
                       linear_m_s=np.array(linear),
                       angular_rad_s=np.array(angular))


def measure_trace(trace, window_s: float = 0.05) -> SpeedSeries:
    """Windowed speeds of a :class:`repro.motion.HeadTrace`.

    Uses the trace's exact per-step motion magnitudes, aggregated into
    windows (path length over window duration).
    """
    steps_per_window = max(int(round(window_s / trace.dt_s)), 1)
    n_windows = len(trace.step_linear_m) // steps_per_window
    if n_windows == 0:
        raise ValueError("trace shorter than one window")
    used = n_windows * steps_per_window
    linear = trace.step_linear_m[:used].reshape(n_windows, -1).sum(axis=1)
    angular = trace.step_angular_rad[:used].reshape(n_windows, -1).sum(axis=1)
    window = steps_per_window * trace.dt_s
    times = (np.arange(n_windows) + 0.5) * window
    return SpeedSeries(times_s=times, linear_m_s=linear / window,
                       angular_rad_s=angular / window)


def cdf(values) -> tuple:
    """Empirical CDF: returns ``(sorted_values, cumulative_fraction)``."""
    data = np.sort(np.asarray(values, dtype=float))
    if data.size == 0:
        raise ValueError("cannot build a CDF from no data")
    fractions = np.arange(1, data.size + 1) / data.size
    return data, fractions


def percentile(values, q: float) -> float:
    """Convenience percentile (q in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q))
