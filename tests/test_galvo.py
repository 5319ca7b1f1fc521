"""Unit tests for the galvo hardware substrate."""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.galvo import (
    CoverageError,
    Daq,
    GVS102,
    GalvoHardware,
    GalvoSpec,
    GmaParams,
    canonical_gma,
    trace,
)
from repro.geometry import Pose, rotation_matrix

from .oracles import Ray, angle_between, reference_apply, second_mirror_plane

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def linear_beam(params, v1, v2):
    """``G(v1, v2)`` at the linear angles ``theta1 * v``, as a Ray."""
    return Ray(*trace(params, params.theta1 * v1, params.theta1 * v2))


def quiet_hardware(**kwargs):
    """Hardware with jitter disabled for exact-geometry tests."""
    spec = GalvoSpec(name="quiet", volts_per_optical_degree=0.5,
                     angular_accuracy_rad=0.0,
                     small_angle_latency_s=300e-6)
    params = kwargs.pop("params", canonical_gma(np.radians(1.0)))
    return GalvoHardware(params, spec=spec,
                         rng=np.random.default_rng(0), **kwargs)


class TestSpecs:
    def test_gvs102_mechanical_scale(self):
        # 0.5 V per optical degree -> 1 mech degree per volt.
        assert GVS102.mech_rad_per_volt == pytest.approx(np.radians(1.0))

    def test_max_mech_angle(self):
        # The +/-10 V range reaches +/-10 mechanical degrees.
        assert (GVS102.mech_rad_per_volt * constants.DAQ_VOLTAGE_RANGE_V
                == pytest.approx(np.radians(10.0)))

    def test_settle_time_small_step(self):
        assert GVS102.settle_time_s(np.radians(0.1)) == pytest.approx(
            300e-6)

    def test_settle_time_grows_with_step(self):
        small = GVS102.settle_time_s(np.radians(0.2))
        large = GVS102.settle_time_s(np.radians(3.2))
        assert large == pytest.approx(small * 4.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            GalvoSpec("bad", 0.0, 1e-5, 3e-4)


class TestDaq:
    def test_voltage_step_16_bit(self):
        daq = Daq()
        assert daq.voltage_step_v == pytest.approx(20.0 / 65536)

    def test_quantize_rounds_to_grid(self):
        daq = Daq()
        v = daq.quantize(1.23456789)
        assert abs(v - 1.23456789) <= daq.voltage_step_v / 2

    def test_quantize_clamps(self):
        daq = Daq()
        assert daq.quantize(15.0) == pytest.approx(10.0)
        assert daq.quantize(-15.0) == pytest.approx(-10.0)

    @settings(max_examples=200, deadline=None)
    @given(voltage=st.floats(min_value=-1e3, max_value=1e3))
    def test_quantize_matches_min_max_clamp(self, voltage):
        daq = Daq()
        step = 2.0 * daq.voltage_range_v / (2 ** daq.bits)
        clamped = min(max(voltage, -daq.voltage_range_v),
                      daq.voltage_range_v)
        assert daq.quantize(voltage) == round(clamped / step) * step

    def test_in_range(self):
        daq = Daq()
        assert daq.in_range(9.99)
        assert not daq.in_range(10.01)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Daq(bits=0)
        with pytest.raises(ValueError):
            Daq(voltage_range_v=0.0)


class TestGmaParams:
    def test_vector_round_trip(self):
        params = canonical_gma(np.radians(1.0))
        rebuilt = GmaParams.from_vector(params.to_vector())
        assert np.allclose(rebuilt.to_vector(), params.to_vector())

    def test_from_vector_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GmaParams.from_vector(np.zeros(24))

    def test_rejects_nonpositive_theta(self):
        params = canonical_gma(np.radians(1.0))
        vector = params.to_vector()
        vector[24] = 0.0
        with pytest.raises(ValueError):
            GmaParams.from_vector(vector)

    @pytest.mark.parametrize("theta1", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, theta1):
        vector = canonical_gma(np.radians(1.0)).to_vector()
        vector[24] = theta1
        with pytest.raises(ValueError, match="theta1"):
            GmaParams.from_vector(vector)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("index, name", [
        (0, "p0"), (4, "x0"), (8, "n1"), (9, "q1"), (13, "r1"),
        (17, "n2"), (20, "q2"), (21, "r2")])
    def test_rejects_non_finite_vector_entry(self, index, name, bad):
        vector = canonical_gma(np.radians(1.0)).to_vector()
        vector[index] = bad
        # Rejected before normalizing: no 0/0 RuntimeWarning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"GmaParams.{name} "):
                GmaParams.from_vector(vector)

    def test_transformed_moves_points_and_rotates_directions(self):
        params = canonical_gma(np.radians(1.0))
        shift = Pose(np.array([1.0, 2.0, 3.0]), np.eye(3))
        moved = params.transformed(shift)
        assert np.allclose(moved.q2, params.q2 + [1, 2, 3])
        assert np.allclose(moved.x0, params.x0)  # translation only

    def test_transform_commutes_with_trace(self):
        # Tracing then transforming == transforming then tracing.
        params = canonical_gma(np.radians(1.0))
        t = Pose(np.array([0.3, -0.2, 1.0]),
                 rotation_matrix([0, 1, 0], 0.4))
        beam_then = Ray(*t.apply_ray(
            *trace(params, params.theta1 * 1.2, params.theta1 * -0.7)))
        then_beam = linear_beam(params.transformed(t), 1.2, -0.7)
        assert np.allclose(beam_then.origin, then_beam.origin, atol=1e-12)
        assert np.allclose(beam_then.direction, then_beam.direction,
                           atol=1e-12)


class TestTrace:
    def test_rest_beam_exits_up(self):
        beam = linear_beam(canonical_gma(np.radians(1.0)), 0.0, 0.0)
        assert np.allclose(beam.direction, [0, 0, 1], atol=1e-9)

    def test_one_volt_deflects_two_optical_degrees(self):
        params = canonical_gma(np.radians(1.0))
        rest = linear_beam(params, 0.0, 0.0)
        steered = linear_beam(params, 0.0, 1.0)
        deflection = angle_between(rest.direction, steered.direction)
        assert deflection == pytest.approx(np.radians(2.0), rel=1e-3)

    def test_first_mirror_voltage_also_steers(self):
        params = canonical_gma(np.radians(1.0))
        rest = linear_beam(params, 0.0, 0.0)
        steered = linear_beam(params, 1.0, 0.0)
        assert angle_between(rest.direction, steered.direction) > 1e-3

    def test_origin_moves_with_voltage(self):
        # The distortion effect (footnote 6): p depends on voltages.
        params = canonical_gma(np.radians(1.0))
        rest = linear_beam(params, 0.0, 0.0)
        steered = linear_beam(params, 4.0, 0.0)
        assert np.linalg.norm(steered.origin - rest.origin) > 1e-4

    def test_mirror_planes_pivot_fixed(self):
        params = canonical_gma(np.radians(1.0))
        a = second_mirror_plane(params, 0.0)
        b = second_mirror_plane(params, -0.1)
        assert np.allclose(a.point, b.point)
        assert not np.allclose(a.normal, b.normal)


class TestGalvoHardware:
    def test_voltages_quantized(self):
        hw = quiet_hardware()
        hw.apply(1.000001, -2.000001)
        v1, v2 = hw.voltages
        step = hw.daq.voltage_step_v
        assert abs(v1 / step - round(v1 / step)) < 1e-6

    def test_rejects_out_of_range(self):
        hw = quiet_hardware()
        with pytest.raises(ValueError):
            hw.apply(10.5, 0.0)

    def test_out_of_range_raises_typed_coverage_error(self):
        from repro.galvo import CoverageError
        hw = quiet_hardware()
        with pytest.raises(CoverageError):
            hw.apply(0.0, -10.5)

    def test_coverage_error_is_a_value_error(self):
        # Backward compatibility: callers catching ValueError still work.
        from repro.galvo import CoverageError
        assert issubclass(CoverageError, ValueError)

    def test_settle_time_positive_on_move(self):
        hw = quiet_hardware()
        assert hw.apply(2.0, 0.0) > 0.0

    def test_quiet_hardware_matches_model(self):
        hw = quiet_hardware()
        hw.apply(1.5, -0.5)
        model_beam = linear_beam(hw.params, *hw.voltages)
        hw_beam = Ray(*hw.output_beam())
        assert np.allclose(hw_beam.origin, model_beam.origin, atol=1e-12)
        assert np.allclose(hw_beam.direction, model_beam.direction,
                           atol=1e-12)

    def test_nonlinearity_bends_response(self):
        hw = quiet_hardware(nonlinearity=1e-3)
        hw.apply(5.0, 0.0)
        bent = Ray(*hw.output_beam())
        linear = linear_beam(hw.params, 5.0, 0.0)
        assert angle_between(bent.direction, linear.direction) > 1e-4

    def test_jitter_draws_once_per_apply(self):
        params = canonical_gma(np.radians(1.0))
        hw = GalvoHardware(params, rng=np.random.default_rng(7))
        hw.apply(1.0, 1.0)
        a = Ray(*hw.output_beam())
        b = Ray(*hw.output_beam())
        assert np.allclose(a.direction, b.direction)

    def test_second_mirror_plane_consistent_with_beam(self):
        hw = quiet_hardware()
        hw.apply(0.8, -1.3)
        plane = second_mirror_plane(hw.params, hw._angle2)
        beam = Ray(*hw.output_beam())
        # The output beam originates on the second mirror plane.
        assert abs(plane.signed_distance(beam.origin)) <= 1e-9



def hardware_state(hw):
    return (hw.voltages, hw._angle1, hw._angle2,
            hw.rng.bit_generator.state)


class TestApplyMatchesOracle:
    """One two-sample jitter draw per command is the same stream as the
    scalar draws of :func:`reference_apply`: equal voltages, angles,
    settle times and generator state after any command sequence."""

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_random_command_sequence(self, seed):
        rng = np.random.default_rng(seed)
        params = canonical_gma(np.radians(1.0))
        hw = GalvoHardware(params, nonlinearity=float(rng.normal(0, 1e-3)),
                           rng=np.random.default_rng(seed))
        reference = copy.deepcopy(hw)
        commands = rng.uniform(-10.2, 10.2, size=(int(rng.integers(1, 60)),
                                                  2))
        for v1, v2 in commands.tolist():
            try:
                settle = reference_apply(reference, v1, v2)
            except CoverageError:
                with pytest.raises(CoverageError):
                    hw.apply(v1, v2)
            else:
                assert hw.apply(v1, v2) == settle
            assert hardware_state(hw) == hardware_state(reference)

    def test_quiet_hardware_draws_nothing(self):
        hw = quiet_hardware()
        before = hw.rng.bit_generator.state
        hw.apply(1.0, -1.0)
        assert hw.rng.bit_generator.state == before


class TestApplyRejectsWithoutSideEffects:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     10.0001, -10.0001])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_bad_voltage(self, bad, axis):
        hw = GalvoHardware(canonical_gma(np.radians(1.0)),
                           rng=np.random.default_rng(3))
        hw.apply(1.25, -0.75)
        before = hardware_state(hw)
        command = [0.5, 0.5]
        command[axis] = bad
        with pytest.raises(CoverageError):
            hw.apply(*command)
        assert hardware_state(hw) == before
