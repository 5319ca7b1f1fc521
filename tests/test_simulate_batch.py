"""The batched slot kernel against the slot-loop oracle.

``reference_simulate_trace`` (``tests/oracles.py``) is the reference;
every row of ``simulate_batch``'s ``connected`` tensor, over a corpus
or a one-row batch, must equal it element for element across every
TP-latency regime (carry, no-carry, never-realigns), worker count and
corpus shape.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.simulate.batch as sim_batch
from repro.motion import generate_batch
from repro.parallel import ParallelFallbackWarning
from repro.simulate import BatchTimeslotResult, TimeslotParams, simulate_batch

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


def _row(batch, index):
    """Row ``index`` of ``batch`` as a one-row batch (views)."""
    rows = slice(index, index + 1)
    return dataclasses.replace(
        batch, viewer_ids=batch.viewer_ids[rows],
        video_ids=batch.video_ids[rows],
        step_linear_m=batch.step_linear_m[rows],
        step_angular_rad=batch.step_angular_rad[rows],
        positions=batch.positions[rows], eulers=batch.eulers[rows])


class TestBitIdentity:
    # Latencies straddle every kernel regime: 0 (no carry), 1..9
    # (carry), 10..15 (realignment never lands within the default
    # 10-slot report).
    @pytest.mark.parametrize("latency", range(16))
    def test_matches_simulate_trace(self, corpus, latency):
        # Every row equals the slot loop, in the corpus and alone.
        params = TimeslotParams(tp_latency_slots=latency)
        got = simulate_batch(corpus, params)
        # array_equal ignores dtype: pin the result dtypes as well.
        assert got.connected.dtype == np.bool_
        assert got.viewer_ids.dtype == np.int64
        assert got.video_ids.dtype == np.int64
        assert got.per_trace_availability().dtype == np.float64
        assert np.array_equal(got.viewer_ids, corpus.viewer_ids)
        assert np.array_equal(got.video_ids, corpus.video_ids)
        for index, want in enumerate(_oracle(corpus, params)):
            assert np.array_equal(got.connected[index], want)
            one = simulate_batch(_row(corpus, index), params)
            assert np.array_equal(one.connected, want[None])

    def test_chunk_size_does_not_change_bytes(self, corpus, monkeypatch):
        whole = simulate_batch(corpus)  # one chunk
        monkeypatch.setattr(sim_batch, "_SIM_CHUNK", 2)
        chopped = simulate_batch(corpus)
        assert np.array_equal(whole.connected, chopped.connected)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_do_not_change_bytes(self, corpus, monkeypatch,
                                         workers):
        serial = simulate_batch(corpus, workers=1)
        monkeypatch.setattr(sim_batch, "_SIM_CHUNK", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParallelFallbackWarning)
            pooled = simulate_batch(corpus, workers=workers)
        assert np.array_equal(serial.connected, pooled.connected)


class TestEdgeShapes:
    def test_empty_batch_of_traces(self):
        batch = generate_batch(viewers=0, videos=5, duration_s=DUR)
        result = simulate_batch(batch)
        assert len(result) == 0
        assert result.connected.shape == (0, result.slots)
        assert result.per_trace_availability().shape == (0,)

    def test_single_trace(self, corpus):
        batch = generate_batch(viewers=1, videos=1, duration_s=DUR,
                               seed=SEED)
        got = simulate_batch(batch)
        want = reference_simulate_trace(batch.trace(0))
        assert np.array_equal(got.connected, want[None])

    def test_trace_shorter_than_one_report(self):
        # duration == dt: a single report interval (n == 1), which
        # exercises the report-0-only early return.
        batch = generate_batch(viewers=2, videos=1, duration_s=0.01,
                               dt_s=0.01, seed=SEED)
        assert batch.steps == 1
        got = simulate_batch(batch)
        for row, want in zip(got.connected,
                             _oracle(batch, TimeslotParams())):
            assert np.array_equal(row, want)

    def test_zero_step_trace(self):
        # A duration-0 trace has one sample and zero steps: the replay
        # is empty but must stay well-formed.
        batch = generate_batch(viewers=1, videos=1, duration_s=0.0,
                               seed=SEED)
        assert batch.steps == 0
        got = simulate_batch(batch)
        assert got.slots == 0
        assert got.per_trace_availability().tolist() == [0.0]

    @pytest.mark.parametrize("dt_s", [0.0125, 0.0135])
    @pytest.mark.parametrize("replay", [
        simulate_batch,
        lambda batch: _oracle(batch, TimeslotParams())],
        ids=["engine", "oracle"])
    def test_rejects_a_report_period_of_fractional_slots(self, replay,
                                                         dt_s):
        # 12.5 ms is not a whole number of 1 ms slots; rounding it to
        # 12 would replay 9.6 s of every 10 s, each drift 4 % fast.
        # The engine and the slot-loop oracle share the rule.
        batch = generate_batch(viewers=1, videos=1, duration_s=1.0,
                               dt_s=dt_s, seed=SEED)
        with pytest.raises(ValueError,
                           match=rf"dt_s={dt_s} .* slot_s=0\.001"):
            replay(batch)

    @pytest.mark.parametrize("factor", [1, 2, 5, 10])
    def test_tracking_rate_ablation_periods_are_whole_slots(self,
                                                           factor):
        # The ablation bench's resampled periods and slot lengths.
        period_s = 0.002 * factor
        params = TimeslotParams(slot_s=min(1e-3, period_s / 2),
                                tp_latency_slots=1)
        batch = generate_batch(viewers=1, videos=1, duration_s=0.2,
                               dt_s=0.002, seed=SEED).resample(factor)
        got = simulate_batch(batch, params)
        assert got.slots == batch.steps * round(period_s / params.slot_s)

    def test_rejects_1d_connected(self):
        # A flat connected row used to be accepted and only failed
        # later, as an IndexError from .slots.
        with pytest.raises(ValueError, match="2-D"):
            BatchTimeslotResult(connected=np.ones(3, dtype=np.bool_),
                                viewer_ids=np.arange(3, dtype=np.int64),
                                video_ids=np.arange(3, dtype=np.int64))

    def test_availability_matches_loop(self, corpus):
        got = simulate_batch(corpus).per_trace_availability()
        want = [float(np.mean(connected))
                for connected in _oracle(corpus, TimeslotParams())]
        assert got.tolist() == want
