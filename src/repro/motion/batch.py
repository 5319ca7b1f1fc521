"""Trace generation: the whole corpus as one tensor.

Every per-trace random stream is drawn from its own ``derive(seed,
viewer, video)`` generator in a fixed call order, so the corpus is
byte-identical per seed; the filtering, integration and norm stages
then run once over ``(traces, 3, samples)`` tensors instead of once
per trace.  :func:`generate_trace` is the same pass over one trace,
returned as the :class:`HeadTrace` pose-replay view.

Layout: tensors are *axis-major* — ``(T, 3, n)`` with time contiguous
— because every heavy stage (the AR(1) scan, ``cumsum``, ``diff``)
walks the time axis.  :meth:`TraceBatch.trace` exposes the familiar
``(n, 3)`` per-trace view by transposition (a zero-copy view).

The equality oracle is ``reference_generate_trace`` in
``tests/oracles.py`` (the per-sample OU recursion and the per-burst
saccade generator): the property tests assert every column matches it
element for element, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import constants
from ..determinism import derive
from ..parallel import parallel_map_arrays
from .traces import VIDEO_360, HeadTrace, TraceProfile


#: OU time constants (s) of the six noise rows per trace: angular
#: velocity (yaw, pitch, roll) then linear sway velocity (x, y, z).
_TAU_S = (0.8, 0.8, 0.8, 1.2, 1.2, 1.2)


@dataclass
class TraceBatch:
    """A trace corpus as column tensors (one row per trace).

    ``positions`` / ``eulers`` are optional: the Section 5.4 slot
    pipeline consumes only the step-magnitude columns, so
    ``generate_batch(columns="steps")`` skips materializing the pose
    tensors for throughput work.  When present they are axis-major
    ``(T, 3, n)``; :meth:`trace` transposes back to ``(n, 3)`` views.
    """

    viewer_ids: np.ndarray          # (T,) int
    video_ids: np.ndarray           # (T,) int
    dt_s: float
    step_linear_m: np.ndarray       # (T, n - 1)
    step_angular_rad: np.ndarray    # (T, n - 1)
    positions: Optional[np.ndarray] = None   # (T, 3, n)
    eulers: Optional[np.ndarray] = None      # (T, 3, n)

    def __post_init__(self) -> None:
        # Shape comparisons only, no array allocation: generate_batch
        # builds one per corpus pass, and that pass's peak RSS is
        # sensitive to small heap allocations between tensor passes.
        if self.step_linear_m.ndim != 2 or \
                self.step_angular_rad.ndim != 2:
            raise ValueError("step columns must be 2-D (T, n - 1)")
        if self.step_linear_m.shape != self.step_angular_rad.shape:
            raise ValueError("step columns have inconsistent shapes")
        t = len(self.viewer_ids)
        if len(self.video_ids) != t or self.step_linear_m.shape[0] != t:
            raise ValueError("batch columns have inconsistent trace "
                             "counts")
        pose_shape = (t, 3, self.step_linear_m.shape[1] + 1)
        for name, tensor in (("positions", self.positions),
                             ("eulers", self.eulers)):
            if tensor is not None and tensor.shape != pose_shape:
                raise ValueError(
                    f"{name} must be axis-major (T, 3, samples) = "
                    f"{pose_shape} to match the step columns, got "
                    f"{tensor.shape}")

    def __len__(self) -> int:
        return len(self.viewer_ids)

    @property
    def steps(self) -> int:
        """Report intervals per trace (slot kernel input length)."""
        return int(self.step_linear_m.shape[1])

    @property
    def samples(self) -> int:
        return self.steps + 1

    @property
    def has_pose(self) -> bool:
        return self.positions is not None and self.eulers is not None

    def trace(self, index: int) -> HeadTrace:
        """One trace as a zero-copy :class:`HeadTrace` view."""
        if not self.has_pose:
            raise ValueError(
                "steps-only batch (columns='steps') carries no pose "
                "tensors; regenerate with columns='full' to extract "
                "HeadTrace objects")
        assert self.positions is not None and self.eulers is not None
        return HeadTrace(
            viewer=int(self.viewer_ids[index]),
            video=int(self.video_ids[index]),
            dt_s=self.dt_s,
            positions=self.positions[index].T,
            eulers=self.eulers[index].T,
            step_linear_m=self.step_linear_m[index],
            step_angular_rad=self.step_angular_rad[index])

    def traces(self) -> List[HeadTrace]:
        """Every trace as zero-copy views (same order as generation)."""
        return [self.trace(index) for index in range(len(self))]

    def resample(self, factor: int) -> "TraceBatch":
        """The same physical motion, reported ``factor`` times less often.

        Groups ``factor`` consecutive samples into one report interval
        (summing the inter-sample motion), which is how a slower
        tracker would see the identical head movement; the remainder
        steps are dropped.  Used by the tracking-frequency ablation.
        """
        if factor < 1:
            raise ValueError("resample factor must be at least 1")
        if factor == 1:
            return self
        groups = self.steps // factor
        if groups < 1:
            raise ValueError("trace too short for this resample factor")
        used = groups * factor
        t_count = len(self)
        indices = np.arange(0, used + 1, factor)
        return TraceBatch(
            viewer_ids=self.viewer_ids, video_ids=self.video_ids,
            dt_s=self.dt_s * factor,
            step_linear_m=self.step_linear_m[:, :used].reshape(
                t_count, groups, factor).sum(axis=2),
            step_angular_rad=self.step_angular_rad[:, :used].reshape(
                t_count, groups, factor).sum(axis=2),
            positions=(None if self.positions is None
                       else self.positions[:, :, indices]),
            eulers=(None if self.eulers is None
                    else self.eulers[:, :, indices]))


def _draw_streams(ids: Sequence[Tuple[int, int]], profile: TraceProfile,
                  n: int, dt_s: float, seed: int
                  ) -> Tuple[np.ndarray, np.ndarray,
                             List[Tuple[int, int, int, float]]]:
    """Consume every per-trace random stream, in the oracle's order.

    Returns the raw normal tensor ``(T, 6, n)`` (the three angular
    rows, then the three sway rows), the matching ``(T, 6)`` sigmas
    and the saccade burst list.  This is the only per-trace loop left
    in the batch engine; everything after it is one tensor pass.
    """
    t_count = len(ids)
    z = np.empty((t_count, 6, n), dtype=np.float64)
    sigma = np.empty((t_count, 6), dtype=np.float64)
    bursts: List[Tuple[int, int, int, float]] = []
    saccades_on = profile.saccade_rate_hz > 0
    expected = profile.saccade_rate_hz * n * dt_s
    for t, (viewer, video) in enumerate(ids):
        rng = derive(seed, viewer, video)
        viewer_activity = rng.lognormal(0.0, profile.activity_sigma)
        video_activity = rng.lognormal(0.0, profile.activity_sigma)
        activity = min(viewer_activity * video_activity,
                       profile.activity_cap)
        wander = math.radians(profile.wander_speed_deg_s) * activity
        sigma[t, 0] = wander          # yaw (drawn first)
        sigma[t, 1] = wander * 0.45   # pitch
        sigma[t, 2] = wander * 0.2    # roll
        # One (3, n) fill consumes the identical ziggurat stream three
        # sequential standard_normal(n) calls would.
        rng.standard_normal(out=z[t, :3])
        peak = math.radians(profile.saccade_peak_deg_s) * activity
        if saccades_on and peak > 0:
            for _ in range(rng.poisson(expected)):
                center = int(rng.integers(0, n))
                duration_s = rng.uniform(0.15, 0.45)
                width = max(int(duration_s / dt_s), 2)
                # integers(0, 2) picks the side choice([-1.0, 1.0])
                # would from the same stream, at a seventh of its cost.
                magnitude = (peak * rng.lognormal(0.0, 0.4)
                             * (-1.0, 1.0)[rng.integers(0, 2)])
                bursts.append((t, center, width, magnitude))
        sigma[t, 3:] = profile.sway_speed_m_s * activity
        rng.standard_normal(out=z[t, 3:])
    return z, sigma, bursts


def _ou_scan(z: np.ndarray, sigma: np.ndarray, dt_s: float,
             taus: Sequence[float]) -> np.ndarray:
    """Batched stationary-start OU: an in-place AR(1) over the last axis.

    ``z`` is ``(..., rows, n)`` unit normals and ``taus`` one time
    constant per row.  Scales ``z`` into innovations, then scans
    ``y[i] = decay * y[i-1] + x[i]`` over time, overwriting ``z`` with
    the paths.  Each element goes through the per-sample recursion's
    exact IEEE operations (one multiply, then one add, each rounded),
    so the paths match it bit for bit.  The scan walks prebuilt column
    views with one preallocated buffer: no tensor is allocated.
    """
    if not z.flags.c_contiguous:
        raise ValueError("the OU scan writes through a reshaped view of "
                         "z, which must be C-contiguous")
    decays = [math.exp(-dt_s / tau) for tau in taus]
    innovation = sigma * np.array(
        [math.sqrt(max(1.0 - decay * decay, 1e-12)) for decay in decays])
    first = sigma * z[..., 0]
    np.multiply(z, innovation[..., None], out=z)
    z[..., 0] = first
    # One flat column view per time step, built once: a 1-D strided
    # ufunc call is cheaper than a multi-axis one, and a positional
    # ``out`` skips keyword parsing (2n calls per chunk).
    rows = z.reshape(-1, z.shape[-1])
    decay = np.broadcast_to(np.array(decays), sigma.shape).reshape(-1)
    scaled = np.empty_like(decay)
    cols = list(rows.T)
    for prev, col in zip(cols, cols[1:]):
        np.multiply(decay, prev, scaled)
        np.add(scaled, col, col)
    return z


def _deposit_saccades(shape: Tuple[int, int],
                      bursts: List[Tuple[int, int, int, float]]
                      ) -> Optional[np.ndarray]:
    """All burst kernels scattered into one (T, n) tensor.

    Every burst support is laid out in one flat index range, so the
    kernels cost a handful of array operations per chunk rather than
    two small arrays per burst.  Those per-burst arrays came in dozens
    of sizes, and the allocator's small-block caches kept some of them
    inside the space the chunk tensors had just freed, which held the
    heap from shrinking between passes.  Per element the arithmetic is
    unchanged: ``m * exp(-0.5 * ((k - c) / (w / 2.5)) ** 2)``.
    """
    if not bursts:
        return None
    t_count, n = shape
    series = np.zeros(shape, dtype=np.float64)
    flat = series.reshape(-1)
    rows, centers, widths, magnitudes = (np.array(column)
                                         for column in zip(*bursts))
    lo = np.maximum(centers - widths, 0)
    lengths = np.minimum(centers + widths, n) - lo
    ends = np.cumsum(lengths)
    # k: the sample index inside its own trace, burst after burst.
    k = np.arange(ends[-1]) + np.repeat(lo - (ends - lengths), lengths)
    indices = np.repeat(rows * n, lengths) + k
    deposits = np.repeat(magnitudes, lengths) * np.exp(
        -0.5 * ((k - np.repeat(centers, lengths))
                / np.repeat(widths / 2.5, lengths)) ** 2)
    np.add.at(flat, indices, deposits)
    return series


def _norm3_steps(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=...)`` over the 3-axis, bit-for-bit.

    ``norm`` reduces the squared components sequentially; for three
    terms that is ``(a + b) + c``, reproduced here explicitly so the
    big intermediate tensors never materialize.
    """
    acc = x[:, 0, :] * x[:, 0, :]
    acc += x[:, 1, :] * x[:, 1, :]
    acc += x[:, 2, :] * x[:, 2, :]
    return np.sqrt(acc, out=acc)


def _generate_columns(ids: Sequence[Tuple[int, int]],
                      profile: TraceProfile, duration_s: float,
                      dt_s: float, seed: int,
                      with_pose: bool) -> Dict[str, np.ndarray]:
    """The tensor pass: every column for a chunk of (viewer, video)."""
    n = int(round(duration_s / dt_s)) + 1
    z, sigma, bursts = _draw_streams(ids, profile, n, dt_s, seed)
    _ou_scan(z, sigma, dt_s, _TAU_S)
    omega = z[:, :3, :]      # rows: yaw, pitch, roll
    velocity = z[:, 3:, :]
    saccades = _deposit_saccades((len(ids), n), bursts)
    if saccades is not None:
        omega[:, 0, :] += saccades
    velocity[:, 2, :] *= 0.4  # vertical sway is smaller

    # step_angular reduces (roll^2 + pitch^2) + yaw^2 — the column
    # order the per-trace omega matrix feeds to np.linalg.norm.
    ordered = omega[:, ::-1, :]  # rows: roll, pitch, yaw (view)
    step_angular = _norm3_steps(ordered[:, :, 1:]) * dt_s

    np.multiply(velocity, dt_s, out=velocity)
    positions = np.cumsum(velocity, axis=-1, out=velocity)
    positions -= positions[:, :, :1].copy()
    eulers = None
    if with_pose:
        np.multiply(omega, dt_s, out=omega)
        # eulers columns are (roll, pitch, yaw): reverse the row order
        # before integrating.
        eulers = np.cumsum(omega[:, ::-1, :], axis=-1)
    # omega is spent (step_angular and eulers are out): reuse its
    # rows for the position deltas instead of faulting a fresh tensor.
    deltas = np.subtract(positions[:, :, 1:], positions[:, :, :-1],
                         out=omega[:, :, 1:])
    step_linear = _norm3_steps(deltas)

    columns = {
        "step_linear_m": step_linear,
        "step_angular_rad": step_angular,
    }
    if eulers is not None:
        columns["positions"] = positions
        columns["eulers"] = eulers
    return columns


def _check_timing(duration_s: float, dt_s: float) -> None:
    """Reject a bad report period or duration before any allocation."""
    if not (math.isfinite(dt_s) and dt_s > 0):
        raise ValueError(f"dt_s must be finite and positive, got {dt_s!r}")
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError("duration_s must be finite and non-negative, "
                         f"got {duration_s!r}")


def generate_trace(viewer: int, video: int,
                   profile: TraceProfile = VIDEO_360,
                   duration_s: float = constants.TRACE_DURATION_S,
                   dt_s: float = constants.TRACE_REPORT_PERIOD_S,
                   seed: int = 0) -> HeadTrace:
    """Synthesize one viewing trace (a one-row tensor pass).

    The random stream is derived from (seed, viewer, video), so a
    dataset regenerates identically; viewer and video also set the
    activity multipliers, giving each viewer a temperament and each
    video a pace.
    """
    _check_timing(duration_s, dt_s)
    columns = _generate_columns([(viewer, video)], profile, duration_s,
                                dt_s, seed, with_pose=True)
    return TraceBatch(viewer_ids=np.array([viewer], dtype=np.int64),
                      video_ids=np.array([video], dtype=np.int64),
                      dt_s=dt_s, **columns).trace(0)


#: Traces per tensor pass.  Modest chunks beat one monolithic pass:
#: the scratch working set stays allocator-warm across chunks instead
#: of page-faulting hundreds of fresh megabytes (measured ~1.4x on the
#: 500-trace corpus), and the same size feeds the pool chunking.
#: Read at call time, so tests can shrink it.
_GEN_CHUNK = 64


def generate_batch(viewers: int = 50, videos: int = 10,
                   profile: TraceProfile = VIDEO_360,
                   duration_s: float = constants.TRACE_DURATION_S,
                   dt_s: float = constants.TRACE_REPORT_PERIOD_S,
                   seed: int = 2022,
                   columns: str = "full",
                   workers: Optional[int] = 1) -> TraceBatch:
    """The full dataset as one batch, byte-identical per seed.

    Per-trace streams derive from ``(seed, viewer, video)``, so every
    row is the trace :func:`generate_trace` returns for that pair, bit
    for bit — for any ``workers`` setting (each chunk of
    ``_GEN_CHUNK`` traces re-derives its own streams; its rows land at
    absolute indices via :func:`repro.parallel.parallel_map_arrays`).

    ``columns="steps"`` skips the pose tensors (the slot pipeline only
    consumes step magnitudes).
    """
    if columns not in ("full", "steps"):
        raise ValueError("columns must be 'full' or 'steps'")
    _check_timing(duration_s, dt_s)
    with_pose = columns == "full"
    ids = [(viewer, video) for viewer in range(viewers)
           for video in range(videos)]
    n = int(round(duration_s / dt_s)) + 1
    specs = {
        "step_linear_m": ((n - 1,), np.float64),
        "step_angular_rad": ((n - 1,), np.float64),
    }
    if with_pose:
        specs["positions"] = ((3, n), np.float64)
        specs["eulers"] = ((3, n), np.float64)
    cols = parallel_map_arrays(
        partial(_generate_columns, profile=profile,
                duration_s=duration_s, dt_s=dt_s, seed=seed,
                with_pose=with_pose),
        ids, specs=specs, chunk_size=_GEN_CHUNK, workers=workers)

    return TraceBatch(
        viewer_ids=np.array([viewer for viewer, _ in ids],
                            dtype=np.int64),
        video_ids=np.array([video for _, video in ids],
                           dtype=np.int64),
        dt_s=dt_s,
        step_linear_m=cols["step_linear_m"],
        step_angular_rad=cols["step_angular_rad"],
        positions=cols.get("positions"),
        eulers=cols.get("eulers"),
    )
