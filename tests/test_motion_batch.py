"""The batched trace engine against its per-trace equality oracle.

``reference_generate_trace`` (``tests/oracles.py``: the per-sample OU
recursion and the per-burst saccade generator) is the reference;
``generate_batch`` and its one-trace pass ``generate_trace`` must
reproduce it *bit for bit* for every (viewer, video) — same derived
streams, same draw order, same float arithmetic.  These tests assert
exact array equality (``np.array_equal``, never ``allclose``) across
worker counts, chunk sizes, durations and report periods.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.motion.batch as motion_batch
from repro.motion import (
    NORMAL_USE,
    VIDEO_360,
    TraceBatch,
    generate_batch,
    generate_dataset,
    generate_trace,
)
from repro.parallel import ParallelFallbackWarning

from .oracles import reference_generate_trace

SEED = 2022
DUR = 5.0


def _reference(viewers, videos, duration_s):
    return [reference_generate_trace(viewer, video, duration_s=duration_s,
                                     seed=SEED)
            for viewer in range(viewers) for video in range(videos)]


def _assert_same_trace(got, want):
    assert got.viewer == want.viewer
    assert got.video == want.video
    assert got.dt_s == want.dt_s
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.eulers, want.eulers)
    assert np.array_equal(got.step_linear_m, want.step_linear_m)
    assert np.array_equal(got.step_angular_rad, want.step_angular_rad)


class TestBitIdentity:
    def test_matches_generate_trace_bitwise(self):
        batch = generate_batch(viewers=3, videos=2, duration_s=DUR,
                               seed=SEED)
        oracle = _reference(3, 2, DUR)
        assert len(batch) == len(oracle)
        # array_equal ignores dtype: pin the column dtypes as well.
        for column in (batch.positions, batch.eulers,
                       batch.step_linear_m, batch.step_angular_rad):
            assert column.dtype == np.float64
        assert batch.viewer_ids.dtype == np.int64
        assert batch.video_ids.dtype == np.int64
        for got, want in zip(batch.traces(), oracle):
            _assert_same_trace(got, want)
            _assert_same_trace(
                generate_trace(want.viewer, want.video, duration_s=DUR,
                               seed=SEED), want)
        # Edge grid for the one-trace pass: a single sample (duration
        # 0), a single report, and report periods from 1 ms to 40 ms.
        for profile in (VIDEO_360, NORMAL_USE):
            for duration_s in (0.0, 0.01, 1.0, 60.0):
                for dt_s in (0.001, 0.01, 0.04):
                    _assert_same_trace(
                        generate_trace(1, 2, profile, duration_s, dt_s,
                                       seed=SEED),
                        reference_generate_trace(1, 2, profile,
                                                 duration_s, dt_s,
                                                 seed=SEED))

    def test_normal_use_profile_bitwise(self):
        # NORMAL_USE has a different saccade/activity mix; the stream
        # consumption order must survive the profile change.
        batch = generate_batch(viewers=2, videos=2, profile=NORMAL_USE,
                               duration_s=DUR, seed=SEED)
        for got, want in zip(
                batch.traces(),
                [reference_generate_trace(v, w, NORMAL_USE,
                                          duration_s=DUR, seed=SEED)
                 for v in range(2) for w in range(2)]):
            _assert_same_trace(got, want)

    def test_chunk_size_does_not_change_bytes(self, monkeypatch):
        whole = generate_batch(viewers=3, videos=3, duration_s=DUR,
                               seed=SEED)  # one chunk
        monkeypatch.setattr(motion_batch, "_GEN_CHUNK", 2)
        chopped = generate_batch(viewers=3, videos=3, duration_s=DUR,
                                 seed=SEED)
        assert np.array_equal(whole.positions, chopped.positions)
        assert np.array_equal(whole.eulers, chopped.eulers)
        assert np.array_equal(whole.step_linear_m, chopped.step_linear_m)
        assert np.array_equal(whole.step_angular_rad,
                              chopped.step_angular_rad)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_do_not_change_bytes(self, monkeypatch, workers):
        serial = generate_batch(viewers=2, videos=3, duration_s=DUR,
                                seed=SEED, workers=1)
        monkeypatch.setattr(motion_batch, "_GEN_CHUNK", 2)
        with warnings.catch_warnings():
            # A sandbox without process pools degrades serially; the
            # bytes must match either way.
            warnings.simplefilter("ignore", ParallelFallbackWarning)
            pooled = generate_batch(viewers=2, videos=3, duration_s=DUR,
                                    seed=SEED, workers=workers)
        assert np.array_equal(serial.positions, pooled.positions)
        assert np.array_equal(serial.eulers, pooled.eulers)
        assert np.array_equal(serial.step_linear_m,
                              pooled.step_linear_m)
        assert np.array_equal(serial.step_angular_rad,
                              pooled.step_angular_rad)


class TestShapesAndModes:
    def test_steps_only_skips_pose(self):
        full = generate_batch(viewers=2, videos=2, duration_s=DUR,
                              seed=SEED)
        steps = generate_batch(viewers=2, videos=2, duration_s=DUR,
                               seed=SEED, columns="steps")
        assert not steps.has_pose
        assert steps.positions is None and steps.eulers is None
        assert np.array_equal(steps.step_linear_m, full.step_linear_m)
        assert np.array_equal(steps.step_angular_rad,
                              full.step_angular_rad)

    def test_steps_only_refuses_trace_views(self):
        steps = generate_batch(viewers=1, videos=1, duration_s=DUR,
                               columns="steps")
        with pytest.raises(ValueError):
            steps.trace(0)

    def test_rejects_unknown_columns(self):
        with pytest.raises(ValueError):
            generate_batch(viewers=1, videos=1, duration_s=DUR,
                           columns="everything")

    def test_empty_corpus(self):
        batch = generate_batch(viewers=0, videos=10, duration_s=DUR)
        assert len(batch) == 0
        assert batch.traces() == []
        assert batch.step_linear_m.shape[0] == 0

    def test_single_trace(self):
        batch = generate_batch(viewers=1, videos=1, duration_s=DUR,
                               seed=SEED)
        assert len(batch) == 1
        _assert_same_trace(batch.trace(0),
                           reference_generate_trace(0, 0, duration_s=DUR,
                                                    seed=SEED))

    def test_trace_views_are_zero_copy(self):
        batch = generate_batch(viewers=1, videos=1, duration_s=DUR)
        view = batch.trace(0)
        assert np.shares_memory(view.positions, batch.positions)
        assert np.shares_memory(view.step_linear_m, batch.step_linear_m)


class TestRejectsMalformedShapes:
    """Bad tensors fail at construction, not later inside trace(i)."""

    @pytest.fixture(scope="class")
    def batch(self):
        return generate_batch(viewers=1, videos=2, duration_s=DUR,
                              seed=SEED)

    @pytest.mark.parametrize("name", ["positions", "eulers"])
    def test_rejects_sample_major_pose(self, batch, name):
        sample_major = getattr(batch, name).transpose(0, 2, 1)
        with pytest.raises(ValueError, match="axis-major"):
            dataclasses.replace(batch, **{name: sample_major})

    def test_rejects_steps_shorter_than_pose(self, batch):
        with pytest.raises(ValueError, match="axis-major"):
            dataclasses.replace(
                batch, step_linear_m=batch.step_linear_m[:, 5:],
                step_angular_rad=batch.step_angular_rad[:, 5:])

    def test_rejects_1d_step_columns(self, batch):
        with pytest.raises(ValueError, match="2-D"):
            dataclasses.replace(
                batch, step_linear_m=batch.step_linear_m[:, 0],
                step_angular_rad=batch.step_angular_rad[:, 0],
                positions=None, eulers=None)


class TestFromTraces:
    def test_roundtrip(self):
        traces = generate_dataset(viewers=2, videos=2, duration_s=DUR)
        batch = TraceBatch.from_traces(traces)
        for got, want in zip(batch.traces(), traces):
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.eulers, want.eulers)
            assert np.array_equal(got.step_linear_m, want.step_linear_m)

    def test_steps_mode(self):
        traces = generate_dataset(viewers=1, videos=2, duration_s=DUR)
        batch = TraceBatch.from_traces(traces, columns="steps")
        assert not batch.has_pose

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceBatch.from_traces([])

    def test_rejects_ragged_corpus(self):
        traces = [generate_trace(0, 0, duration_s=DUR, seed=SEED),
                  generate_trace(0, 1, duration_s=2 * DUR, seed=SEED)]
        with pytest.raises(ValueError):
            TraceBatch.from_traces(traces)
