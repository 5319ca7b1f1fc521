"""Unit tests for the Section 5.4 timeslot simulation.

Each case replays one trace as a one-row :class:`TraceBatch` through
``simulate_batch`` and, where it checks bits, compares the row with
the slot-loop oracle ``reference_simulate_trace``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.motion import TraceBatch, generate_trace
from repro.simulate import TimeslotParams, analyze, simulate_batch

from .oracles import reference_simulate_trace


def synthetic_trace(step_linear_m, step_angular_rad, dt_s=0.010):
    """A one-row batch with prescribed per-step motion magnitudes."""
    n = len(step_linear_m) + 1
    positions = np.zeros((1, 3, n))
    positions[0, 0, 1:] = np.cumsum(step_linear_m)
    eulers = np.zeros((1, 3, n))
    eulers[0, 2, 1:] = np.cumsum(step_angular_rad)
    return TraceBatch(
        viewer_ids=np.zeros(1, dtype=np.int64),
        video_ids=np.zeros(1, dtype=np.int64), dt_s=dt_s,
        step_linear_m=np.asarray(step_linear_m, dtype=float)[None],
        step_angular_rad=np.asarray(step_angular_rad, dtype=float)[None],
        positions=positions, eulers=eulers)


def availability(batch, params=TimeslotParams()):
    """The one trace's connected fraction."""
    return simulate_batch(batch, params).per_trace_availability()[0]


class TestParams:
    def test_defaults_match_paper(self):
        params = TimeslotParams()
        assert params.slot_s == pytest.approx(1e-3)
        assert params.residual_lateral_m == pytest.approx(4.54e-3)
        assert params.residual_angular_rad == pytest.approx(4.54e-3 / 1.75)
        assert params.lateral_tolerance_m == pytest.approx(6e-3)
        assert params.angular_tolerance_rad == pytest.approx(8.73e-3)

    def test_rejects_tolerance_below_residual(self):
        with pytest.raises(ValueError):
            TimeslotParams(lateral_tolerance_m=1e-3)

    def test_rejects_bad_slot(self):
        with pytest.raises(ValueError):
            TimeslotParams(slot_s=0.0)

    @pytest.mark.parametrize("slot_s", [math.nan, math.inf])
    def test_rejects_non_finite_slot(self, slot_s):
        with pytest.raises(ValueError, match="slot length"):
            TimeslotParams(slot_s=slot_s)

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    @pytest.mark.parametrize("name", ["residual_lateral_m",
                                      "residual_angular_rad"])
    def test_rejects_bad_residual(self, name, value):
        # A NaN residual compares false everywhere (0 % availability);
        # a negative one silently buys margin.
        with pytest.raises(ValueError, match=name):
            TimeslotParams(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["lateral_tolerance_m",
                                      "angular_tolerance_rad"])
    def test_rejects_non_finite_tolerance(self, name, value):
        with pytest.raises(ValueError, match=name):
            TimeslotParams(**{name: value})

    def test_zero_residual_is_legal(self):
        params = TimeslotParams(residual_lateral_m=0.0,
                                residual_angular_rad=0.0)
        assert params.residual_lateral_m == 0.0

    def test_rejects_fractional_latency(self):
        # A fractional latency never equals a slot index, so the
        # realignment would silently never land.
        with pytest.raises(ValueError, match="whole number"):
            TimeslotParams(tp_latency_slots=2.5)
        with pytest.raises(ValueError, match="negative"):
            TimeslotParams(tp_latency_slots=-1)
        params = TimeslotParams(tp_latency_slots=np.int64(3))
        assert params.tp_latency_slots == 3


class TestSimulateTrace:
    def test_stationary_trace_fully_connected(self):
        trace = synthetic_trace(np.zeros(100), np.zeros(100))
        assert availability(trace) == 1.0

    def test_slow_motion_stays_connected(self):
        # 10 deg/s: 1.75 mrad per 10 ms report -- far within budget.
        step_ang = np.full(200, np.radians(10) * 0.01)
        assert availability(synthetic_trace(np.zeros(200), step_ang)) == 1.0

    def test_fast_rotation_disconnects(self):
        # 60 deg/s: 10.5 mrad per report >> the 8.73 mrad tolerance.
        step_ang = np.full(200, np.radians(60) * 0.01)
        assert availability(synthetic_trace(np.zeros(200), step_ang)) < 0.7

    def test_fast_translation_disconnects(self):
        # 0.5 m/s: 5 mm drift per report + 4.54 mm residual > 6 mm.
        step_lin = np.full(200, 0.5 * 0.01)
        assert availability(synthetic_trace(step_lin, np.zeros(200))) < 0.7

    def test_burst_only_affects_its_slots(self):
        steps = np.zeros(300)
        steps[100:110] = np.radians(80) * 0.01  # a 100 ms saccade
        result = simulate_batch(synthetic_trace(np.zeros(300), steps))
        assert 0.9 < result.per_trace_availability()[0] < 1.0
        # Slots outside the burst neighbourhood stay connected.
        assert result.connected[0, :990].all()

    def test_slot_count(self):
        trace = synthetic_trace(np.zeros(50), np.zeros(50))
        result = simulate_batch(trace)
        assert result.slots == 500
        assert result.connected.shape == (1, 500)

    def test_higher_tolerance_more_availability(self):
        step_ang = np.full(200, np.radians(40) * 0.01)
        trace = synthetic_trace(np.zeros(200), step_ang)
        tight = availability(trace, TimeslotParams())
        loose = availability(trace, TimeslotParams(
            angular_tolerance_rad=20e-3))
        assert loose >= tight

    def test_latency_slots_delay_realignment(self):
        # With a huge TP latency the realignment never lands inside
        # the interval, so drift accumulates across reports.
        step_ang = np.full(100, np.radians(25) * 0.01)
        trace = synthetic_trace(np.zeros(100), step_ang)
        normal = availability(trace, TimeslotParams(tp_latency_slots=2))
        never = availability(trace, TimeslotParams(tp_latency_slots=99))
        assert never < normal

    def test_off_slots_property(self):
        # 90 reports of 10 slots tile exactly 30 frames, so the
        # clustering pass counts every off-slot.
        trace = synthetic_trace(np.zeros(90),
                                np.full(90, np.radians(60) * 0.01))
        result = simulate_batch(trace)
        assert analyze(result).off_slot_total == result.slots - int(
            result.connected.sum())


def _assert_matches_reference(trace, params):
    vectorized = simulate_batch(trace, params)
    reference = reference_simulate_trace(trace.trace(0), params)
    assert vectorized.connected.dtype == np.bool_
    np.testing.assert_array_equal(vectorized.connected, reference[None])
    np.testing.assert_array_equal(vectorized.viewer_ids, trace.viewer_ids)
    np.testing.assert_array_equal(vectorized.video_ids, trace.video_ids)


@st.composite
def trace_and_params(draw):
    """A random trace plus random TimeslotParams.

    ``slots_per_report`` spans 1..12 and ``tp_latency_slots`` spans
    0..slots_per_report+3, deliberately crossing the never-realigns
    boundary (latency >= slots_per_report).
    """
    slots_per_report = draw(st.integers(1, 12))
    n_steps = draw(st.integers(0, 40))
    magnitude = st.floats(min_value=0.0, max_value=0.05,
                          allow_nan=False, allow_infinity=False)
    step_linear = draw(st.lists(magnitude, min_size=n_steps,
                                max_size=n_steps))
    step_angular = draw(st.lists(magnitude, min_size=n_steps,
                                 max_size=n_steps))
    latency = draw(st.integers(0, slots_per_report + 3))
    residual_lat = draw(st.floats(0.0, 5e-3, allow_nan=False))
    residual_ang = draw(st.floats(0.0, 5e-3, allow_nan=False))
    params = TimeslotParams(
        slot_s=1e-3,
        tp_latency_slots=latency,
        residual_lateral_m=residual_lat,
        residual_angular_rad=residual_ang,
        lateral_tolerance_m=residual_lat + draw(
            st.floats(1e-6, 8e-3, allow_nan=False)),
        angular_tolerance_rad=residual_ang + draw(
            st.floats(1e-6, 10e-3, allow_nan=False)),
    )
    trace = synthetic_trace(np.asarray(step_linear),
                            np.asarray(step_angular),
                            dt_s=slots_per_report * 1e-3)
    return trace, params


class TestVectorizedMatchesReference:
    """The tentpole invariant: vectorized == reference, element-wise."""

    @settings(max_examples=150, deadline=None)
    @given(trace_and_params())
    def test_property_equivalence(self, pair):
        trace, params = pair
        _assert_matches_reference(trace, params)

    @pytest.mark.parametrize("latency", [*range(16), 99])
    def test_latency_extremes_on_real_trace(self, latency):
        trace = generate_trace(viewer=2, video=3, seed=11,
                               duration_s=5.0)
        params = TimeslotParams(tp_latency_slots=latency)
        _assert_matches_reference(
            synthetic_trace(trace.step_linear_m, trace.step_angular_rad),
            params)
        # Short prefixes: no report, one (report 0 only), two (the
        # first realignment), and a few.
        for steps in (0, 1, 2, 7, 50):
            _assert_matches_reference(
                synthetic_trace(trace.step_linear_m[:steps],
                                trace.step_angular_rad[:steps]), params)

    def test_real_trace_default_params(self):
        trace = generate_trace(viewer=0, video=0, seed=2022,
                               duration_s=10.0)
        _assert_matches_reference(
            synthetic_trace(trace.step_linear_m, trace.step_angular_rad),
            TimeslotParams())

    def test_empty_trace(self):
        trace = synthetic_trace(np.zeros(0), np.zeros(0))
        result = simulate_batch(trace)
        assert result.slots == 0
        _assert_matches_reference(trace, TimeslotParams())

    def test_single_step_trace(self):
        trace = synthetic_trace([1e-4], [2e-4])
        _assert_matches_reference(trace, TimeslotParams())


class TestLatencyAtOrBeyondReportPeriod:
    """Regression: tp_latency_slots >= slots_per_report never realigns.

    The ``sub == tp_latency_slots`` branch of the reference loop can
    never fire, so the drift accumulates forever; this is the modelled
    "TP too slow" regime, documented on TimeslotParams rather than
    rejected.
    """

    def test_drift_accumulates_forever(self):
        # Slow motion that a realigning TP absorbs trivially, but which
        # disconnects permanently once drift is never reset.
        step_ang = np.full(300, np.radians(10) * 0.01)
        trace = synthetic_trace(np.zeros(300), step_ang)
        aligned = availability(trace, TimeslotParams(tp_latency_slots=2))
        drifting = simulate_batch(
            trace, TimeslotParams(tp_latency_slots=10)).connected[0]
        assert aligned == 1.0
        assert drifting.mean() < 1.0
        # Once disconnected, a monotone drift never reconnects.
        off = np.flatnonzero(~drifting)
        assert off.size > 0
        assert not drifting[off[0]:].any()

    def test_latency_equal_and_beyond_period_identical(self):
        step_ang = np.full(120, np.radians(25) * 0.01)
        trace = synthetic_trace(np.zeros(120), step_ang)
        at_period = simulate_batch(
            trace, TimeslotParams(tp_latency_slots=10))
        beyond = simulate_batch(
            trace, TimeslotParams(tp_latency_slots=17))
        np.testing.assert_array_equal(at_period.connected,
                                      beyond.connected)

    def test_matches_reference_in_never_realign_regime(self):
        step_ang = np.full(80, np.radians(25) * 0.01)
        step_lin = np.full(80, 0.002)
        trace = synthetic_trace(step_lin, step_ang)
        for latency in (10, 11, 50):
            _assert_matches_reference(
                trace, TimeslotParams(tp_latency_slots=latency))
