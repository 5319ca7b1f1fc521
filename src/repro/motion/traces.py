"""Synthetic head-movement traces (the Section 5.4 dataset substitute).

The paper replays 500 one-minute traces (50 viewers x 10 360-degree
YouTube videos, sampled every 10 ms) from Lo et al.'s public dataset.
That dataset is not redistributable here, so we synthesize traces with
the same format and the same statistical character:

* yaw-dominant head rotation: a slow Ornstein-Uhlenbeck wander (gaze
  drift) plus Poisson-arriving "saccade" bursts (fast re-orientations
  toward new content), pitch and roll smaller;
* near-stationary position: seated/standing sway at centimeters;
* wide cross-trace variability: each viewer and each video carries an
  activity multiplier, so quiet traces barely move while busy ones
  whip around -- reproducing Fig. 16's spread from 99.98 % down to
  ~95 % availability.

Two generation profiles exist: ``NORMAL_USE`` matches the Fig. 3 study
(speeds at most ~19 deg/s and ~14 cm/s, i.e. ordinary app usage), and
``VIDEO_360`` matches 360-degree-video viewing, whose saccades are what
actually disconnect the link in Section 5.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, List, Optional

import numpy as np

from .. import constants
from ..determinism import derive
from ..geometry import euler_to_matrix
from ..parallel import parallel_map
from ..vrh import Pose


@lru_cache(maxsize=None)
def _lfilter() -> Callable[..., np.ndarray]:
    """``scipy.signal.lfilter``, imported on first trace generation.

    ``scipy.signal`` drags in ``scipy.stats``, ``scipy.special`` and
    ``scipy.fft`` (about a second of import) for this one function,
    which only OU trace generation calls, so it stays off the
    ``import repro`` path.
    """
    from scipy.signal import lfilter
    return lfilter


@dataclass(frozen=True)
class TraceProfile:
    """Statistical knobs for one kind of viewing behaviour."""

    name: str
    wander_speed_deg_s: float      # OU angular-speed scale (yaw)
    saccade_rate_hz: float         # Poisson arrival rate of fast turns
    saccade_peak_deg_s: float      # typical saccade peak speed
    sway_speed_m_s: float          # linear sway speed scale
    activity_sigma: float          # lognormal spread across traces
    activity_cap: float = 10.0     # truncation of the activity product


NORMAL_USE = TraceProfile(
    name="normal-use",
    wander_speed_deg_s=2.8,
    saccade_rate_hz=0.0,
    saccade_peak_deg_s=0.0,
    sway_speed_m_s=0.022,
    activity_sigma=0.2,
    activity_cap=1.5,
)

VIDEO_360 = TraceProfile(
    name="video-360",
    wander_speed_deg_s=8.0,
    saccade_rate_hz=0.18,
    saccade_peak_deg_s=28.0,
    sway_speed_m_s=0.04,
    activity_sigma=0.3,
    activity_cap=1.7,
)


@dataclass
class HeadTrace:
    """One viewing trace: timestamped poses at the dataset's 10 ms rate.

    ``step_linear_m`` / ``step_angular_rad`` are the exact inter-sample
    motion magnitudes (recorded at generation time), which is all the
    Section 5.4 simulation consumes.
    """

    viewer: int
    video: int
    dt_s: float
    positions: np.ndarray          # (n, 3)
    eulers: np.ndarray             # (n, 3): roll, pitch, yaw
    step_linear_m: np.ndarray      # (n - 1,)
    step_angular_rad: np.ndarray   # (n - 1,)

    def __post_init__(self):
        n = len(self.positions)
        if (len(self.eulers) != n or len(self.step_linear_m) != n - 1
                or len(self.step_angular_rad) != n - 1):
            raise ValueError("trace arrays have inconsistent lengths")

    @property
    def samples(self) -> int:
        return len(self.positions)

    @property
    def duration_s(self) -> float:
        return (self.samples - 1) * self.dt_s

    def pose_at(self, t_s: float) -> Pose:
        """Interpolated pose, for driving the full prototype simulator."""
        index = min(max(t_s / self.dt_s, 0.0), self.samples - 1.0)
        low = int(math.floor(index))
        high = min(low + 1, self.samples - 1)
        frac = index - low
        position = ((1.0 - frac) * self.positions[low]
                    + frac * self.positions[high])
        euler = (1.0 - frac) * self.eulers[low] + frac * self.eulers[high]
        return Pose(position, euler_to_matrix(*euler))

    def linear_speeds_m_s(self) -> np.ndarray:
        """Per-step linear speeds."""
        return self.step_linear_m / self.dt_s

    def angular_speeds_rad_s(self) -> np.ndarray:
        """Per-step angular speeds."""
        return self.step_angular_rad / self.dt_s


def _ou_series_reference(n: int, dt: float, tau: float, sigma: float,
                         rng: np.random.Generator) -> np.ndarray:
    """The original per-sample OU recursion, kept as the oracle.

    ``_ou_series`` must reproduce it bit-for-bit.
    """
    series = np.empty(n)
    series[0] = rng.normal(0.0, sigma)
    decay = math.exp(-dt / tau)
    innovation = sigma * math.sqrt(max(1.0 - decay * decay, 1e-12))
    for i in range(1, n):
        series[i] = decay * series[i - 1] + innovation * rng.normal()
    return series


def _ou_series(n: int, dt: float, tau: float, sigma: float,
               rng: np.random.Generator) -> np.ndarray:
    """A zero-mean Ornstein-Uhlenbeck path (stationary start).

    Vectorized AR(1) formulation: one batched draw of the same standard
    -normal stream the reference recursion consumes (NumPy fills arrays
    with the identical ziggurat sequence scalar calls would produce),
    then ``scipy.signal.lfilter`` evaluates ``y[i] = decay * y[i-1] +
    x[i]`` in the same floating-point order as the loop, so the output
    is bit-identical to ``_ou_series_reference`` for the same generator
    state.
    """
    if n <= 0:
        return np.empty(0)
    decay = math.exp(-dt / tau)
    innovation = sigma * math.sqrt(max(1.0 - decay * decay, 1e-12))
    z = rng.standard_normal(n)
    x = innovation * z
    x[0] = sigma * z[0]
    return _lfilter()([1.0], [1.0, -decay], x)


def _saccade_series(n: int, dt: float, rate_hz: float, peak: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Angular-velocity bursts: bell-shaped, Poisson arrivals.

    Burst parameters are drawn one burst at a time (preserving the
    exact RNG stream the original implementation consumed, so datasets
    stay byte-deterministic per seed), but the kernel deposits are
    batched: all burst supports are concatenated and accumulated with a
    single ``np.add.at`` scatter instead of one slice-add per burst.
    """
    series = np.zeros(n)
    if rate_hz <= 0 or peak <= 0:
        return series
    expected = rate_hz * n * dt
    bursts = []
    for _ in range(rng.poisson(expected)):
        center = rng.integers(0, n)
        duration_s = rng.uniform(0.15, 0.45)
        width = max(int(duration_s / dt), 2)
        magnitude = peak * rng.lognormal(0.0, 0.4) * rng.choice([-1.0, 1.0])
        bursts.append((int(center), width, magnitude))
    if not bursts:
        return series
    indices = np.concatenate([np.arange(max(c - w, 0), min(c + w, n))
                              for c, w, _ in bursts])
    deposits = np.concatenate([
        m * np.exp(-0.5 * ((np.arange(max(c - w, 0), min(c + w, n)) - c)
                           / (w / 2.5)) ** 2)
        for c, w, m in bursts])
    np.add.at(series, indices, deposits)
    return series


def generate_trace(viewer: int, video: int,
                   profile: TraceProfile = VIDEO_360,
                   duration_s: float = constants.TRACE_DURATION_S,
                   dt_s: float = constants.TRACE_REPORT_PERIOD_S,
                   seed: int = 0) -> HeadTrace:
    """Synthesize one viewing trace.

    The random stream is derived from (seed, viewer, video), so a
    dataset regenerates identically; viewer and video also set the
    activity multipliers, giving each viewer a temperament and each
    video a pace.
    """
    _lfilter()  # import scipy.signal before the trace arrays exist
    rng = derive(seed, viewer, video)
    n = int(round(duration_s / dt_s)) + 1
    viewer_activity = rng.lognormal(0.0, profile.activity_sigma)
    video_activity = rng.lognormal(0.0, profile.activity_sigma)
    activity = min(viewer_activity * video_activity, profile.activity_cap)

    wander = math.radians(profile.wander_speed_deg_s) * activity
    omega = np.zeros((n, 3))
    omega[:, 2] = _ou_series(n, dt_s, 0.8, wander, rng)  # yaw
    omega[:, 1] = _ou_series(n, dt_s, 0.8, wander * 0.45, rng)  # pitch
    omega[:, 0] = _ou_series(n, dt_s, 0.8, wander * 0.2, rng)  # roll
    saccades = _saccade_series(
        n, dt_s, profile.saccade_rate_hz,
        math.radians(profile.saccade_peak_deg_s) * activity, rng)
    omega[:, 2] += saccades

    velocity = np.column_stack([
        _ou_series(n, dt_s, 1.2, profile.sway_speed_m_s * activity, rng)
        for _ in range(3)])
    velocity[:, 2] *= 0.4  # vertical sway is smaller

    eulers = np.cumsum(omega * dt_s, axis=0)
    positions = np.cumsum(velocity * dt_s, axis=0)
    positions -= positions[0]

    step_linear = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    step_angular = np.linalg.norm(omega[1:], axis=1) * dt_s
    return HeadTrace(viewer=viewer, video=video, dt_s=dt_s,
                     positions=positions, eulers=eulers,
                     step_linear_m=step_linear,
                     step_angular_rad=step_angular)


def resample_trace(trace: HeadTrace, factor: int) -> HeadTrace:
    """The same physical motion, reported ``factor`` times less often.

    Groups ``factor`` consecutive samples into one report interval
    (summing the inter-sample motion), which is how a slower tracker
    would see the identical head movement.  Used by the
    tracking-frequency ablation.
    """
    if factor < 1:
        raise ValueError("resample factor must be at least 1")
    if factor == 1:
        return trace
    steps = len(trace.step_linear_m)
    groups = steps // factor
    if groups < 1:
        raise ValueError("trace too short for this resample factor")
    used = groups * factor
    step_linear = trace.step_linear_m[:used].reshape(
        groups, factor).sum(axis=1)
    step_angular = trace.step_angular_rad[:used].reshape(
        groups, factor).sum(axis=1)
    indices = np.arange(0, used + 1, factor)
    return HeadTrace(viewer=trace.viewer, video=trace.video,
                     dt_s=trace.dt_s * factor,
                     positions=trace.positions[indices],
                     eulers=trace.eulers[indices],
                     step_linear_m=step_linear,
                     step_angular_rad=step_angular)


def _generate_indexed(ids, profile: TraceProfile, duration_s: float,
                      seed: int) -> HeadTrace:
    """Generate one (viewer, video) trace (module-level: picklable)."""
    viewer, video = ids
    return generate_trace(viewer, video, profile=profile,
                          duration_s=duration_s, seed=seed)


def generate_dataset(viewers: int = 50, videos: int = 10,
                     profile: TraceProfile = VIDEO_360,
                     duration_s: float = constants.TRACE_DURATION_S,
                     seed: int = 2022,
                     workers: Optional[int] = 1,
                     engine: str = "auto",
                     store=None, group: str = "traces") -> List[HeadTrace]:
    """The full 500-trace dataset (viewers x videos), deterministic.

    Each trace's random stream is derived from ``(seed, viewer,
    video)`` and results merge back in (viewer, video) order, so the
    dataset is byte-identical for any ``workers`` setting — and for
    either ``engine``.  ``engine="auto"`` (and ``"batch"``) routes
    through :func:`repro.motion.batch.generate_batch`, which produces
    the identical traces as zero-copy views of one corpus tensor;
    ``engine="loop"`` keeps the original one-trace-at-a-time path.
    Passing ``store=`` (a :class:`repro.store.ColumnStore`) persists
    the corpus as column group ``group`` (batch engine only).
    """
    if engine not in ("auto", "batch", "loop"):
        raise ValueError("engine must be 'auto', 'batch' or 'loop'")
    if engine in ("auto", "batch"):
        from .batch import generate_batch  # local: avoids module cycle
        batch = generate_batch(viewers=viewers, videos=videos,
                               profile=profile, duration_s=duration_s,
                               seed=seed, workers=workers,
                               store=store, group=group)
        return batch.traces()
    if store is not None:
        raise ValueError("store= requires the batch engine")
    ids = [(viewer, video) for viewer in range(viewers)
           for video in range(videos)]
    return parallel_map(
        partial(_generate_indexed, profile=profile,
                duration_s=duration_s, seed=seed),
        ids, workers=workers)
