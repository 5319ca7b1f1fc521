"""Unit tests for availability aggregation and clustering analysis."""

import numpy as np
import pytest

from repro.motion import generate_batch
from repro.simulate import (
    BatchTimeslotResult,
    analyze,
    report,
    simulate_batch,
)


def result_from(*rows):
    """A corpus result with one connected row per argument."""
    connected = np.array(rows, dtype=bool).reshape(
        len(rows), len(rows[0]) if rows else 0)
    return BatchTimeslotResult(
        connected=connected,
        viewer_ids=np.arange(len(rows), dtype=np.int64),
        video_ids=np.zeros(len(rows), dtype=np.int64))


class TestReport:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no results"):
            report(result_from())

    def test_aggregates(self):
        results = result_from([True] * 90 + [False] * 10, [True] * 100)
        rep = report(results)
        assert rep.overall_availability == pytest.approx(0.95)
        assert rep.worst == pytest.approx(0.9)
        assert rep.best == pytest.approx(1.0)

    def test_cdf_axes(self):
        results = result_from([True] * 90 + [False] * 10, [True] * 100)
        disconnected, fractions = report(results).disconnection_cdf()
        assert disconnected == pytest.approx([0.0, 10.0])
        assert fractions[-1] == pytest.approx(1.0)

    def test_effective_bandwidth(self):
        rep = report(result_from([True] * 99 + [False]))
        assert rep.effective_bandwidth_gbps(23.5) == pytest.approx(
            0.99 * 23.5)

    def test_rejects_results_with_no_slots(self):
        # All-empty traces carry zero slots: there is no availability
        # to report, and it must not divide by zero.
        with pytest.raises(ValueError, match="no slots"):
            report(result_from([], []))

    def test_totals_from_connected_arrays(self):
        results = result_from([True, False, True], [False, False, False])
        rep = report(results)
        assert rep.overall_availability == 2 / 6
        assert rep.per_trace_availability.tolist() == [2 / 3, 0.0]


class TestClustering:
    def test_no_offs_fraction_is_one(self):
        rep = analyze(result_from([True] * 300))
        assert rep.fraction_in_frames_below(10) == 1.0

    def test_scattered_offs_in_small_frames(self):
        # One off-slot every other frame: every off lives in a frame
        # with a single off-slot.
        connected = np.ones(300, dtype=bool)
        connected[::60] = False
        rep = analyze(result_from(connected))
        assert rep.fraction_in_frames_below(2) == 1.0

    def test_clustered_offs_in_big_frames(self):
        # One fully dark frame of 30 slots.
        connected = np.ones(300, dtype=bool)
        connected[60:90] = False
        rep = analyze(result_from(connected))
        assert rep.fraction_in_frames_below(10) == 0.0
        assert rep.fraction_in_frames_below(31) == 1.0

    def test_histogram_counts_frames(self):
        connected = np.ones(90, dtype=bool)
        connected[0:3] = False   # frame 0: 3 offs
        connected[30:33] = False  # frame 1: 3 offs
        rep = analyze(result_from(connected))
        assert rep.off_per_frame_histogram[3] == 2

    def test_rejects_bad_frame_size(self):
        with pytest.raises(ValueError):
            analyze(result_from([True] * 30), frame_slots=0)

    def test_rows_add_up_and_partial_frames_are_dropped(self):
        # Frames tile each trace separately; the trailing 20 slots of
        # each 80-slot row fill no whole frame and are not counted.
        first = np.ones(80, dtype=bool)
        first[[0, 1, 35, 70]] = False
        second = np.ones(80, dtype=bool)
        second[30:60] = False
        both = analyze(result_from(first, second))
        alone = [analyze(result_from(row)) for row in (first, second)]
        assert both.off_slot_total == 33
        assert both.off_slot_total == sum(r.off_slot_total for r in alone)
        np.testing.assert_array_equal(
            both.off_per_frame_histogram,
            sum(r.off_per_frame_histogram for r in alone))


class TestSmallDatasetEndToEnd:
    """A miniature Section 5.4 run (full 500-trace run in the bench)."""

    @pytest.fixture(scope="class")
    def small_report(self):
        batch = generate_batch(viewers=6, videos=5, duration_s=30.0,
                               columns="steps")
        result = simulate_batch(batch)
        return report(result), analyze(result)

    def test_availability_in_paper_band(self, small_report):
        rep, _ = small_report
        assert 0.96 <= rep.overall_availability <= 1.0

    def test_spread_across_traces(self, small_report):
        rep, _ = small_report
        assert rep.best > rep.worst

    def test_most_offs_scattered(self, small_report):
        _, clustering = small_report
        assert clustering.fraction_in_frames_below(10) > 0.3
