"""Section 5.4 slot simulation: the whole corpus at once.

The drift/realign/compare arithmetic runs with a leading *trace* axis:
the short sub-slot dimension (``slots_per_report``, typically 10) is
walked sequentially, exactly as the slot-by-slot loop walks it, but
each step is one vector operation across *every report of every
trace*.  :func:`simulate_trace` is the same pass over one trace and
:func:`simulate_batch` the corpus, chunked over an optional process
pool.

Bit-compatibility is a hard contract, not an aspiration: the oracle is
``reference_simulate_trace`` in ``tests/oracles.py`` (the slot loop),
and the property tests assert the ``connected`` tensor matches it
element for element.  The kernel keeps only running accumulator rows
(``(traces, reports)``) instead of materializing the full per-channel
error tensor, writing each sub-slot's comparison result straight into
the boolean output — same floats, same comparisons, a fraction of the
memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..motion import HeadTrace
from ..motion.batch import TraceBatch
from ..parallel import parallel_map_arrays
from .timeslot import TimeslotParams, TimeslotResult


@dataclass(frozen=True)
class BatchTimeslotResult:
    """Slot-level connectivity for a whole corpus, one row per trace."""

    connected: np.ndarray   # (T, slots) bool
    viewer_ids: np.ndarray  # (T,)
    video_ids: np.ndarray   # (T,)

    def __post_init__(self) -> None:
        if self.connected.ndim != 2:
            raise ValueError("connected must be 2-D (T, slots), got "
                             f"shape {self.connected.shape}")
        if (self.connected.shape[0] != len(self.viewer_ids)
                or len(self.viewer_ids) != len(self.video_ids)):
            raise ValueError("batch result rows are inconsistent")

    def __len__(self) -> int:
        return int(self.connected.shape[0])

    @property
    def slots(self) -> int:
        return int(self.connected.shape[1])

    def result(self, index: int) -> TimeslotResult:
        """One trace's result as a zero-copy view."""
        return TimeslotResult(connected=self.connected[index],
                              viewer=int(self.viewer_ids[index]),
                              video=int(self.video_ids[index]))

    def results(self) -> List[TimeslotResult]:
        """Per-trace results (views), in corpus order."""
        return [self.result(index) for index in range(len(self))]

    def per_trace_availability(self) -> np.ndarray:
        """Connected fraction per trace (0.0 for empty replays)."""
        if self.slots == 0:
            return np.zeros(len(self), dtype=np.float64)
        return np.mean(self.connected, axis=1)


def _drift_no_realign(rates: np.ndarray, residual: float,
                      slots: int) -> np.ndarray:
    """Per-slot error when realignment never lands, (T, N * S) floats.

    One uninterrupted running sum per trace across the whole replay
    (``np.cumsum`` accumulates sequentially, matching the loop); the
    result is chronological already.
    """
    inc = np.repeat(rates, slots, axis=1)
    inc[:, 0] += residual
    return np.cumsum(inc, axis=1, out=inc)


def _connected_rows(step_linear: np.ndarray, step_angular: np.ndarray,
                    params: TimeslotParams,
                    slots_per_report: int) -> np.ndarray:
    """The (T, N * S) connected tensor for stacked step columns.

    The error is a running sum per channel (the TP residual at the
    start of the replay, ``+= rate`` once per slot) that snaps back to
    the residual at slot ``latency`` of every report interval after
    the first; the additions happen in the slot loop's left-to-right
    order, with the trace axis in front.  Both channels advance
    together through the short sub-slot loop; only the current
    accumulator rows ``(T, reports)`` are kept in floats, and each
    sub-slot's fused comparison ``(lat <= tol) & (ang <= tol)`` lands
    directly in the boolean output.
    """
    t_count, n = step_linear.shape
    slots = slots_per_report
    latency = params.tp_latency_slots
    lat_tol = params.lateral_tolerance_m
    ang_tol = params.angular_tolerance_rad
    rates_lat = np.asarray(step_linear, dtype=float) / slots
    rates_ang = np.asarray(step_angular, dtype=float) / slots
    ok = np.empty((t_count, n, slots), dtype=bool)
    if n == 0:
        return ok.reshape(t_count, 0)

    if latency >= slots:
        # The modelled "TP too slow" regime (see TimeslotParams).
        err_lat = _drift_no_realign(rates_lat,
                                    params.residual_lateral_m, slots)
        err_ang = _drift_no_realign(rates_ang,
                                    params.residual_angular_rad, slots)
        flat = ok.reshape(t_count, n * slots)
        np.less_equal(err_lat, lat_tol, out=flat)
        flat &= err_ang <= ang_tol
        return flat

    # Report 0: no realignment (the link starts aligned), one ramp
    # from the residual across the full interval.
    acc0_lat = np.full(t_count, params.residual_lateral_m,
                       dtype=np.float64)
    acc0_ang = np.full(t_count, params.residual_angular_rad,
                       dtype=np.float64)
    for sub in range(slots):
        acc0_lat += rates_lat[:, 0]
        acc0_ang += rates_ang[:, 0]
        np.logical_and(acc0_lat <= lat_tol, acc0_ang <= ang_tol,
                       out=ok[:, 0, sub])
    if n == 1:
        return ok.reshape(t_count, slots)

    # Reports >= 1, slots [latency, S): every interval restarts from
    # the residual and ramps independently.
    sub_lat = rates_lat[:, 1:]
    sub_ang = rates_ang[:, 1:]
    lat_ok = np.empty((t_count, n - 1), dtype=bool)
    acc_lat = params.residual_lateral_m + sub_lat
    acc_ang = params.residual_angular_rad + sub_ang
    for sub in range(latency, slots):
        if sub > latency:
            acc_lat += sub_lat
            acc_ang += sub_ang
        np.less_equal(acc_lat, lat_tol, out=lat_ok)
        np.logical_and(lat_ok, acc_ang <= ang_tol, out=ok[:, 1:, sub])

    if latency > 0:
        # Reports >= 1, slots [0, latency): the previous interval's
        # final error carries across the boundary until realignment.
        carry_lat = np.empty((t_count, n - 1), dtype=np.float64)
        carry_ang = np.empty((t_count, n - 1), dtype=np.float64)
        carry_lat[:, 0] = acc0_lat
        carry_ang[:, 0] = acc0_ang
        carry_lat[:, 1:] = acc_lat[:, :-1]
        carry_ang[:, 1:] = acc_ang[:, :-1]
        acc_lat = carry_lat
        acc_lat += sub_lat
        acc_ang = carry_ang
        acc_ang += sub_ang
        for sub in range(latency):
            if sub > 0:
                acc_lat += sub_lat
                acc_ang += sub_ang
            np.less_equal(acc_lat, lat_tol, out=lat_ok)
            np.logical_and(lat_ok, acc_ang <= ang_tol,
                           out=ok[:, 1:, sub])
    return ok.reshape(t_count, n * slots)


def _connected_chunk(items: Sequence[tuple], params: TimeslotParams,
                     slots_per_report: int) -> Dict[str, np.ndarray]:
    """Worker-side chunk body (module-level: picklable)."""
    step_linear = np.stack([lin for lin, _ in items])
    step_angular = np.stack([ang for _, ang in items])
    return {"connected": _connected_rows(step_linear, step_angular,
                                         params, slots_per_report)}


def _slots_per_report(dt_s: float, params: TimeslotParams) -> int:
    slots_per_report = int(round(dt_s / params.slot_s))
    if slots_per_report < 1:
        raise ValueError("slots must be finer than the report period")
    return slots_per_report


def simulate_trace(trace: HeadTrace,
                   params: TimeslotParams = TimeslotParams()
                   ) -> TimeslotResult:
    """Replay one trace through the 1 ms-slot model (a one-row pass).

    Includes the ``tp_latency_slots >= slots_per_report`` regime, where
    the realignment never lands and the error drifts monotonically for
    the rest of the trace.
    """
    connected = _connected_rows(
        trace.step_linear_m[None], trace.step_angular_rad[None], params,
        _slots_per_report(trace.dt_s, params))
    return TimeslotResult(connected=connected[0], viewer=trace.viewer,
                          video=trace.video)


#: Traces per kernel pass: keeps the accumulator rows cache-resident
#: and the chunk working set allocator-warm (see motion.batch).  Read
#: at call time, so tests can shrink it.
_SIM_CHUNK = 64


def simulate_batch(batch: Union[TraceBatch, Sequence[HeadTrace]],
                   params: TimeslotParams = TimeslotParams(),
                   workers: Optional[int] = 1
                   ) -> BatchTimeslotResult:
    """Replay a whole corpus through the 1 ms-slot model in one pass.

    Accepts a :class:`~repro.motion.batch.TraceBatch` (preferred; a
    steps-only batch suffices) or a uniform sequence of
    :class:`HeadTrace`; a ragged sequence (mixed ``dt_s`` or length)
    is rejected with ``ValueError``.  Element-wise identical to
    running :func:`simulate_trace` per trace.

    The trace axis runs in chunks of ``_SIM_CHUNK``; with ``workers >
    1`` the chunks fan over a process pool and each returns its
    ``connected`` rows (see :func:`repro.parallel.parallel_map_arrays`).
    """
    if not isinstance(batch, TraceBatch):
        traces = list(batch)
        if not traces:
            raise ValueError("no traces to simulate")
        # Steps-only: the slot kernel never reads the pose tensors, so
        # skip copying them.
        batch = TraceBatch.from_traces(traces, columns="steps")
    slots_per_report = _slots_per_report(batch.dt_s, params)
    t_count, n = batch.step_linear_m.shape

    items = [(batch.step_linear_m[i], batch.step_angular_rad[i])
             for i in range(t_count)]
    cols = parallel_map_arrays(
        partial(_connected_chunk, params=params,
                slots_per_report=slots_per_report),
        items,
        specs={"connected": ((n * slots_per_report,), np.bool_)},
        chunk_size=_SIM_CHUNK, workers=workers)
    return BatchTimeslotResult(connected=cols["connected"],
                               viewer_ids=np.asarray(batch.viewer_ids),
                               video_ids=np.asarray(batch.video_ids))
