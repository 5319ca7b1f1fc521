"""The batched slot kernel against the slot-loop oracle.

``reference_simulate_trace`` (``tests/oracles.py``) is the reference;
``simulate_batch`` and its one-trace pass ``simulate_trace`` must
produce the element-for-element identical ``connected`` tensor across
every TP-latency regime (carry, no-carry, never-realigns), worker
count and corpus shape.
"""

import warnings

import numpy as np
import pytest

from repro.motion import generate_batch
from repro.parallel import ParallelFallbackWarning
from repro.simulate import (
    BatchTimeslotResult,
    TimeslotParams,
    simulate_batch,
    simulate_trace,
)
from repro.store import ColumnStore

from .oracles import reference_simulate_trace

SEED = 2022
DUR = 5.0


@pytest.fixture(scope="module")
def corpus():
    return generate_batch(viewers=2, videos=3, duration_s=DUR,
                          seed=SEED)


def _oracle(batch, params):
    return [reference_simulate_trace(trace, params)
            for trace in batch.traces()]


class TestBitIdentity:
    # Latencies straddle every kernel regime: 0 (no carry), 1..9
    # (carry), 10..15 (realignment never lands within the default
    # 10-slot report).
    @pytest.mark.parametrize("latency", range(16))
    def test_matches_simulate_trace(self, corpus, latency):
        params = TimeslotParams(tp_latency_slots=latency)
        got = simulate_batch(corpus, params)
        # array_equal ignores dtype: pin the result dtypes as well.
        assert got.connected.dtype == np.bool_
        assert got.viewer_ids.dtype == np.int64
        assert got.video_ids.dtype == np.int64
        assert got.per_trace_availability().dtype == np.float64
        for row, trace, want in zip(got.results(), corpus.traces(),
                                    _oracle(corpus, params)):
            assert np.array_equal(row.connected, want.connected)
            assert row.viewer == want.viewer
            assert row.video == want.video
            one = simulate_trace(trace, params)
            assert np.array_equal(one.connected, want.connected)
            assert one.connected.dtype == np.bool_

    def test_accepts_plain_trace_sequences(self, corpus):
        got = simulate_batch(corpus.traces())
        for row, want in zip(got.results(),
                             _oracle(corpus, TimeslotParams())):
            assert np.array_equal(row.connected, want.connected)

    def test_chunk_size_does_not_change_bytes(self, corpus):
        whole = simulate_batch(corpus, chunk_size=None)
        chopped = simulate_batch(corpus, chunk_size=2)
        assert np.array_equal(whole.connected, chopped.connected)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_workers_do_not_change_bytes(self, corpus, workers):
        serial = simulate_batch(corpus, workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParallelFallbackWarning)
            pooled = simulate_batch(corpus, workers=workers,
                                    chunk_size=2)
        assert np.array_equal(serial.connected, pooled.connected)


class TestEdgeShapes:
    def test_empty_batch_of_traces(self):
        batch = generate_batch(viewers=0, videos=5, duration_s=DUR)
        result = simulate_batch(batch)
        assert len(result) == 0
        assert result.results() == []
        assert result.per_trace_availability().shape == (0,)

    def test_empty_trace_sequence_rejected(self):
        with pytest.raises(ValueError):
            simulate_batch([])

    def test_single_trace(self, corpus):
        batch = generate_batch(viewers=1, videos=1, duration_s=DUR,
                               seed=SEED)
        got = simulate_batch(batch)
        want = reference_simulate_trace(batch.trace(0))
        assert np.array_equal(got.result(0).connected, want.connected)

    def test_trace_shorter_than_one_report(self):
        # duration == dt: a single report interval (n == 1), which
        # exercises the report-0-only early return.
        batch = generate_batch(viewers=2, videos=1, duration_s=0.01,
                               dt_s=0.01, seed=SEED)
        assert batch.steps == 1
        got = simulate_batch(batch)
        for row, want in zip(got.results(),
                             _oracle(batch, TimeslotParams())):
            assert np.array_equal(row.connected, want.connected)

    def test_zero_step_trace(self):
        # A duration-0 trace has one sample and zero steps: the replay
        # is empty but must stay well-formed.
        batch = generate_batch(viewers=1, videos=1, duration_s=0.0,
                               seed=SEED)
        assert batch.steps == 0
        got = simulate_batch(batch)
        assert got.slots == 0
        assert got.per_trace_availability().tolist() == [0.0]

    def test_rejects_1d_connected(self):
        # A flat connected row used to be accepted and only failed
        # later, as an IndexError from .slots.
        with pytest.raises(ValueError, match="2-D"):
            BatchTimeslotResult(connected=np.ones(3, dtype=np.bool_),
                                viewer_ids=np.arange(3, dtype=np.int64),
                                video_ids=np.arange(3, dtype=np.int64))

    def test_availability_matches_loop(self, corpus):
        got = simulate_batch(corpus).per_trace_availability()
        want = [r.availability
                for r in _oracle(corpus, TimeslotParams())]
        assert got.tolist() == want


class TestStoreIntegration:
    def test_save_load_roundtrip(self, corpus, tmp_path):
        store = ColumnStore(tmp_path)
        result = simulate_batch(corpus, store=store)
        loaded = BatchTimeslotResult.load(store)
        assert np.array_equal(loaded.connected, result.connected)
        assert np.array_equal(loaded.viewer_ids, result.viewer_ids)
        attrs = store.read_group("slots").attrs
        assert attrs["slots_per_report"] == 10
        assert attrs["tp_latency_slots"] == 2

    def test_loaded_rows_replay_as_results(self, corpus, tmp_path):
        store = ColumnStore(tmp_path)
        simulate_batch(corpus, store=store)
        loaded = BatchTimeslotResult.load(store)
        for row, want in zip(loaded.results(),
                             _oracle(corpus, TimeslotParams())):
            assert np.array_equal(row.connected, want.connected)
