"""Unit tests for the synthetic head-trace dataset."""

import numpy as np
import pytest

from repro import constants
from repro.motion import (
    NORMAL_USE,
    VIDEO_360,
    generate_batch,
    generate_trace,
    measure_trace,
)
from repro.motion.batch import _TAU_S, _ou_scan

from .oracles import reference_generate_trace, reference_ou_series


@pytest.fixture(scope="module")
def video_trace():
    return generate_trace(viewer=0, video=0, profile=VIDEO_360)


class TestTraceFormat:
    def test_sample_rate(self, video_trace):
        assert video_trace.dt_s == pytest.approx(0.010)

    def test_duration_one_minute(self, video_trace):
        assert video_trace.duration_s == pytest.approx(60.0)

    def test_array_lengths_consistent(self, video_trace):
        n = video_trace.samples
        assert video_trace.positions.shape == (n, 3)
        assert video_trace.eulers.shape == (n, 3)
        assert len(video_trace.step_linear_m) == n - 1

    def test_starts_at_origin(self, video_trace):
        assert np.allclose(video_trace.positions[0], 0.0)

    def test_steps_match_positions(self, video_trace):
        deltas = np.linalg.norm(np.diff(video_trace.positions, axis=0),
                                axis=1)
        assert np.allclose(deltas, video_trace.step_linear_m)


class TestDeterminism:
    def test_same_ids_same_trace(self):
        a = generate_trace(3, 7, seed=42)
        b = generate_trace(3, 7, seed=42)
        assert np.allclose(a.positions, b.positions)
        assert np.allclose(a.step_angular_rad, b.step_angular_rad)

    def test_different_viewer_different_trace(self):
        a = generate_trace(3, 7, seed=42)
        b = generate_trace(4, 7, seed=42)
        assert not np.allclose(a.positions, b.positions)

    def test_dataset_dimensions(self):
        dataset = generate_batch(viewers=3, videos=4, duration_s=5.0)
        assert len(dataset) == 12
        assert set(zip(dataset.viewer_ids.tolist(),
                       dataset.video_ids.tolist())) == {
            (v, w) for v in range(3) for w in range(4)}


class TestStatistics:
    def test_normal_use_respects_fig3_bounds(self):
        # Fig. 3: at most ~19 deg/s angular and ~14 cm/s linear.
        traces = [generate_trace(v, 0, profile=NORMAL_USE)
                  for v in range(8)]
        ang = np.concatenate(
            [measure_trace(t).angular_deg_s for t in traces])
        lin = np.concatenate(
            [measure_trace(t).linear_m_s for t in traces])
        assert ang.max() <= constants.REQUIRED_ANGULAR_SPEED_DEG_S * 1.15
        assert lin.max() <= constants.REQUIRED_LINEAR_SPEED_M_S * 1.25

    def test_video_360_has_fast_turns(self):
        traces = [generate_trace(v, vid, profile=VIDEO_360)
                  for v in range(4) for vid in range(3)]
        ang = np.concatenate(
            [measure_trace(t).angular_deg_s for t in traces])
        assert ang.max() > constants.REQUIRED_ANGULAR_SPEED_DEG_S

    def test_video_360_is_mostly_calm(self):
        trace = generate_trace(1, 1, profile=VIDEO_360)
        ang = measure_trace(trace).angular_deg_s
        assert np.median(ang) < 20.0

    def test_traces_vary_in_activity(self):
        maxima = []
        for v in range(6):
            trace = generate_trace(v, 0, profile=VIDEO_360)
            maxima.append(measure_trace(trace).angular_deg_s.max())
        assert max(maxima) > 2 * min(maxima)


class TestPoseAt:
    def test_endpoints(self, video_trace):
        start = video_trace.pose_at(0.0)
        assert np.allclose(start.position, video_trace.positions[0])

    def test_interpolates_between_samples(self, video_trace):
        mid = video_trace.pose_at(0.005)
        expected = (video_trace.positions[0]
                    + video_trace.positions[1]) / 2.0
        assert np.allclose(mid.position, expected)

    def test_clamps_beyond_end(self, video_trace):
        last = video_trace.pose_at(1e6)
        assert np.allclose(last.position, video_trace.positions[-1])

    def test_clamps_negative_time(self, video_trace):
        before = video_trace.pose_at(-5.0)
        assert np.allclose(before.position, video_trace.positions[0])
        assert np.allclose(before.position,
                           video_trace.pose_at(0.0).position)

    def test_exact_last_sample(self, video_trace):
        end = video_trace.pose_at(video_trace.duration_s)
        assert np.allclose(end.position, video_trace.positions[-1])

    def test_just_past_duration_equals_last(self, video_trace):
        duration = video_trace.duration_s
        past = video_trace.pose_at(duration + 0.5 * video_trace.dt_s)
        assert np.allclose(past.position, video_trace.positions[-1])

    def test_exact_interior_sample(self, video_trace):
        t = 7 * video_trace.dt_s
        assert np.allclose(video_trace.pose_at(t).position,
                           video_trace.positions[7])

    def test_speeds_helpers(self, video_trace):
        # One-sample windows give the per-step speeds.
        speeds = measure_trace(video_trace, window_s=video_trace.dt_s)
        assert len(speeds.linear_m_s) == video_trace.samples - 1
        np.testing.assert_array_equal(
            speeds.linear_m_s,
            video_trace.step_linear_m / video_trace.dt_s)


class TestResample:
    """``TraceBatch.resample``: the same motion at a slower report rate."""

    @pytest.fixture(scope="class")
    def short_batch(self):
        return generate_batch(viewers=2, videos=2, seed=5, duration_s=2.0)

    def test_identity_factor(self, short_batch):
        assert short_batch.resample(1) is short_batch

    def test_rejects_factor_below_one(self, short_batch):
        with pytest.raises(ValueError):
            short_batch.resample(0)

    def test_rejects_factor_beyond_trace(self, short_batch):
        with pytest.raises(ValueError):
            short_batch.resample(short_batch.steps + 1)

    def test_exact_division(self, short_batch):
        steps = short_batch.steps  # 200 steps
        factor = 4
        assert steps % factor == 0
        coarse = short_batch.resample(factor)
        assert coarse.step_linear_m.shape == (4, steps // factor)
        assert coarse.samples == steps // factor + 1
        assert coarse.dt_s == pytest.approx(short_batch.dt_s * factor)
        np.testing.assert_array_equal(coarse.viewer_ids,
                                      short_batch.viewer_ids)
        np.testing.assert_array_equal(coarse.video_ids,
                                      short_batch.video_ids)

    def test_remainder_steps_dropped(self, short_batch):
        steps = short_batch.steps  # 200 steps
        factor = 7                 # 200 = 28*7 + 4
        groups = steps // factor
        coarse = short_batch.resample(factor)
        assert coarse.steps == groups
        assert coarse.samples == groups + 1
        # Only the first groups*factor fine steps contribute; the
        # 4-step remainder is discarded.  Each row is summed exactly as
        # one trace's group sums are.
        used = groups * factor
        for row in range(len(short_batch)):
            np.testing.assert_array_equal(
                coarse.step_linear_m[row],
                short_batch.step_linear_m[row, :used].reshape(
                    groups, factor).sum(axis=1))
            np.testing.assert_array_equal(
                coarse.step_angular_rad[row],
                short_batch.step_angular_rad[row, :used].reshape(
                    groups, factor).sum(axis=1))

    def test_positions_subsampled_at_group_boundaries(self, short_batch):
        factor = 7
        coarse = short_batch.resample(factor)
        groups = short_batch.steps // factor
        indices = np.arange(0, groups * factor + 1, factor)
        np.testing.assert_array_equal(coarse.positions,
                                      short_batch.positions[:, :, indices])
        np.testing.assert_array_equal(coarse.eulers,
                                      short_batch.eulers[:, :, indices])
        # A steps-only batch resamples to a steps-only batch.
        steps_only = generate_batch(viewers=2, videos=2, seed=5,
                                    duration_s=2.0, columns="steps")
        assert not steps_only.resample(factor).has_pose

    def test_motion_is_conserved_per_group(self, short_batch):
        # Summed step magnitudes are identical physical motion seen by
        # a slower tracker, so totals over the used region agree.
        factor = 3
        coarse = short_batch.resample(factor)
        used = (short_batch.steps // factor) * factor
        np.testing.assert_allclose(
            coarse.step_angular_rad.sum(axis=1),
            short_batch.step_angular_rad[:, :used].sum(axis=1))


class TestOuVectorization:
    """The batched AR(1) scan is bit-identical to the recursion."""

    @pytest.mark.parametrize("n,tau,sigma", [
        (1, 0.8, 0.1),
        (2, 0.8, 0.1),
        (977, 0.8, 0.14),
        (6001, 1.2, 0.04),
        (50, 1e-3, 2.0),     # decay ~ 0, innovation ~ sigma
        (50, 1e6, 0.5),      # decay ~ 1, tiny innovation
    ])
    def test_bitwise_equal_to_reference(self, n, tau, sigma):
        z = np.random.default_rng(99).standard_normal((1, 1, n))
        fast = _ou_scan(z, np.array([[sigma]]), 0.01, (tau,))[0, 0]
        slow = reference_ou_series(n, 0.01, tau, sigma,
                                   np.random.default_rng(99))
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("n", [1, 2, 977])
    def test_fused_rows_bitwise_equal_to_reference(self, n):
        # One scan over the (T, 6, n) tensor the batch engine fills:
        # angular rows (tau 0.8 s) and sway rows (tau 1.2 s) with
        # per-row sigmas, each row equal to its own recursion.
        assert len(set(_TAU_S)) == 2
        sigma = np.array([[0.14, 0.063, 0.028, 0.04, 0.04, 0.04],
                          [0.3, 0.135, 0.06, 0.09, 0.09, 0.09]])
        seeds = np.arange(sigma.size).reshape(sigma.shape)
        z = np.array([[np.random.default_rng(seed).standard_normal(n)
                       for seed in row] for row in seeds])
        fast = _ou_scan(z, sigma, 0.01, _TAU_S)
        for (t, row), seed in np.ndenumerate(seeds):
            slow = reference_ou_series(n, 0.01, _TAU_S[row],
                                       sigma[t, row],
                                       np.random.default_rng(seed))
            np.testing.assert_array_equal(fast[t, row], slow)

    def test_rejects_a_non_contiguous_tensor(self):
        # The scan writes through a reshaped view; a copy would drop it.
        z = np.zeros((2, 1, 8))[:, :, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            _ou_scan(z, np.ones((2, 1)), 0.01, (0.8,))

    def test_consumes_identical_rng_stream(self):
        # One n-sample fill (what the tensor pass draws per OU path)
        # leaves the generator where the per-sample recursion does, so
        # downstream draws (saccades, sway) are unchanged.
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        rng_a.standard_normal(500)
        reference_ou_series(500, 0.01, 0.8, 0.2, rng_b)
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_empty_series(self):
        # A zero-duration trace is one sample with empty step series.
        trace = generate_trace(0, 0, duration_s=0.0)
        want = reference_generate_trace(0, 0, duration_s=0.0)
        assert trace.samples == 1
        assert trace.step_linear_m.size == 0
        assert trace.step_angular_rad.size == 0
        np.testing.assert_array_equal(trace.positions, want.positions)
        np.testing.assert_array_equal(trace.eulers, want.eulers)


class TestDatasetWorkers:
    def test_workers_do_not_change_dataset(self):
        serial = generate_batch(viewers=2, videos=2, duration_s=2.0,
                                workers=1)
        fanned = generate_batch(viewers=2, videos=2, duration_s=2.0,
                                workers=2)
        assert len(serial) == len(fanned)
        for a, b in zip(serial.traces(), fanned.traces()):
            assert (a.viewer, a.video) == (b.viewer, b.video)
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.eulers, b.eulers)
            np.testing.assert_array_equal(a.step_linear_m,
                                          b.step_linear_m)
            np.testing.assert_array_equal(a.step_angular_rad,
                                          b.step_angular_rad)
