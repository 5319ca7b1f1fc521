"""Unit tests for availability aggregation and clustering analysis."""

import numpy as np
import pytest

from repro.motion import generate_dataset, generate_trace
from repro.simulate import (
    TimeslotResult,
    analyze,
    report,
    simulate_dataset,
)


def result_from(connected):
    return TimeslotResult(connected=np.asarray(connected, dtype=bool),
                          viewer=0, video=0)


class TestReport:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            report([])
        with pytest.raises(ValueError):
            simulate_dataset([])

    def test_simulate_dataset_rejects_ragged_corpus(self):
        # The slot engine needs one length and report period per corpus.
        longer = generate_trace(0, 1, duration_s=2.0)
        coarser = generate_trace(0, 2, duration_s=1.0, dt_s=0.02)
        for odd in (longer, coarser):
            with pytest.raises(ValueError, match="not uniform"):
                simulate_dataset([generate_trace(0, 0, duration_s=1.0),
                                  odd])

    def test_aggregates(self):
        results = [result_from([True] * 90 + [False] * 10),
                   result_from([True] * 100)]
        rep = report(results)
        assert rep.overall_availability == pytest.approx(0.95)
        assert rep.worst == pytest.approx(0.9)
        assert rep.best == pytest.approx(1.0)

    def test_cdf_axes(self):
        results = [result_from([True] * 90 + [False] * 10),
                   result_from([True] * 100)]
        disconnected, fractions = report(results).disconnection_cdf()
        assert disconnected == pytest.approx([0.0, 10.0])
        assert fractions[-1] == pytest.approx(1.0)

    def test_effective_bandwidth(self):
        rep = report([result_from([True] * 99 + [False])])
        assert rep.effective_bandwidth_gbps(23.5) == pytest.approx(
            0.99 * 23.5)

    def test_rejects_results_with_no_slots(self):
        # All-empty traces carry zero slots: there is no availability
        # to report, and it must not divide by zero.
        with pytest.raises(ValueError):
            report([result_from([]), result_from([])])

    def test_empty_trace_mixed_with_real_ones(self):
        rep = report([result_from([]),
                      result_from([True] * 90 + [False] * 10)])
        assert rep.overall_availability == pytest.approx(0.9)
        # The empty trace contributes its defined 0.0 availability to
        # the per-trace spread but no slots to the totals.
        assert rep.worst == pytest.approx(0.0)

    def test_totals_from_connected_arrays(self):
        results = [result_from([True, False, True]),
                   result_from([False, False])]
        rep = report(results)
        assert rep.overall_availability == pytest.approx(2 / 5)


class TestSimulateDatasetWorkers:
    def test_workers_do_not_change_results(self):
        traces = generate_dataset(viewers=2, videos=2, duration_s=2.0)
        serial = simulate_dataset(traces, workers=1)
        fanned = simulate_dataset(traces, workers=2)
        assert len(serial) == len(fanned)
        for a, b in zip(serial, fanned):
            assert (a.viewer, a.video) == (b.viewer, b.video)
            np.testing.assert_array_equal(a.connected, b.connected)


class TestClustering:
    def test_no_offs_fraction_is_one(self):
        rep = analyze([result_from([True] * 300)])
        assert rep.fraction_in_frames_below(10) == 1.0

    def test_scattered_offs_in_small_frames(self):
        # One off-slot every other frame: every off lives in a frame
        # with a single off-slot.
        connected = np.ones(300, dtype=bool)
        connected[::60] = False
        rep = analyze([result_from(connected)])
        assert rep.fraction_in_frames_below(2) == 1.0

    def test_clustered_offs_in_big_frames(self):
        # One fully dark frame of 30 slots.
        connected = np.ones(300, dtype=bool)
        connected[60:90] = False
        rep = analyze([result_from(connected)])
        assert rep.fraction_in_frames_below(10) == 0.0
        assert rep.fraction_in_frames_below(31) == 1.0

    def test_histogram_counts_frames(self):
        connected = np.ones(90, dtype=bool)
        connected[0:3] = False   # frame 0: 3 offs
        connected[30:33] = False  # frame 1: 3 offs
        rep = analyze([result_from(connected)])
        assert rep.off_per_frame_histogram[3] == 2

    def test_rejects_bad_frame_size(self):
        with pytest.raises(ValueError):
            analyze([result_from([True] * 30)], frame_slots=0)


class TestSmallDatasetEndToEnd:
    """A miniature Section 5.4 run (full 500-trace run in the bench)."""

    @pytest.fixture(scope="class")
    def small_report(self):
        traces = generate_dataset(viewers=6, videos=5, duration_s=30.0)
        results = simulate_dataset(traces)
        return report(results), analyze(results)

    def test_availability_in_paper_band(self, small_report):
        rep, _ = small_report
        assert 0.96 <= rep.overall_availability <= 1.0

    def test_spread_across_traces(self, small_report):
        rep, _ = small_report
        assert rep.best > rep.worst

    def test_most_offs_scattered(self, small_report):
        _, clustering = small_report
        assert clustering.fraction_in_frames_below(10) > 0.3
