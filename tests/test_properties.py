"""Property-based tests (hypothesis) on the core invariants.

These cover the algebraic backbone everything else rests on: geometry
identities, coupling monotonicity, the G'/G inverse relationship, P's
settling over the evaluation envelope, and schedule/timeslot
conservation laws.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constants import (
    DAQ_VOLTAGE_RANGE_V,
    LINK_RANGE_MAX_M,
    LINK_RANGE_MIN_M,
)
from repro.core import (
    GmaModel,
    PointingDivergedError,
    cold_start_seed,
    point,
    solve_inverse,
)
from repro.core.inverse import DEFAULT_VOLTAGE_STEP_V, InverseDivergedError
from repro.galvo import canonical_gma
from repro.geometry import (
    Pose,
    euler_to_matrix,
    normalize,
    rotation_matrix,
)
from repro.motion import StrokeSchedule
from repro.link import link_10g_diverging
from repro.optics import GaussianBeam, excess_loss_db, tolerance

from .oracles import Plane, Ray, reflect_direction


finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
unit_component = st.floats(min_value=-1.0, max_value=1.0,
                           allow_nan=False, allow_infinity=False)
angle = st.floats(min_value=-math.pi, max_value=math.pi,
                  allow_nan=False, allow_infinity=False)


def vec3(strategy=finite):
    return st.tuples(strategy, strategy, strategy).map(np.array)


def nonzero_vec3():
    return vec3(unit_component).filter(
        lambda v: np.linalg.norm(v) > 1e-3)


class TestGeometryProperties:
    @given(v=nonzero_vec3())
    def test_normalize_is_idempotent(self, v):
        once = normalize(v)
        assert np.allclose(normalize(once), once, atol=1e-12)

    @given(d=nonzero_vec3(), n=nonzero_vec3())
    def test_reflection_is_involution(self, d, n):
        once = reflect_direction(d, n)
        twice = reflect_direction(once, n)
        assert np.allclose(twice, normalize(d), atol=1e-9)

    @given(d=nonzero_vec3(), n=nonzero_vec3())
    def test_reflection_preserves_norm(self, d, n):
        out = reflect_direction(d, n)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    @given(axis=nonzero_vec3(), theta=angle, v=nonzero_vec3())
    def test_rotation_preserves_norm(self, axis, theta, v):
        rotated = rotation_matrix(axis, theta) @ v
        assert np.linalg.norm(rotated) == pytest.approx(
            np.linalg.norm(v))

    @given(axis=nonzero_vec3(), theta=angle)
    def test_rotation_inverse_is_negative_angle(self, axis, theta):
        forward = rotation_matrix(axis, theta)
        backward = rotation_matrix(axis, -theta)
        assert np.allclose(forward @ backward, np.eye(3), atol=1e-9)

    @given(t=vec3(unit_component), axis=nonzero_vec3(), theta=angle,
           p=vec3(unit_component))
    def test_rigid_transform_preserves_distances(self, t, axis, theta, p):
        transform = Pose(t, rotation_matrix(axis, theta))
        q = p + np.array([0.1, -0.2, 0.3])
        d_before = np.linalg.norm(p - q)
        d_after = np.linalg.norm(transform.apply_point(p)
                                 - transform.apply_point(q))
        assert d_after == pytest.approx(d_before, abs=1e-9)

    @given(origin=vec3(unit_component), direction=nonzero_vec3(),
           t=st.floats(min_value=0.0, max_value=50.0))
    def test_points_on_ray_have_zero_distance(self, origin, direction, t):
        ray = Ray(origin, direction)
        assert ray.distance_to_point(ray.point_at(t)) < 1e-9

    @given(origin=vec3(unit_component), direction=nonzero_vec3())
    def test_plane_projection_lies_on_plane(self, origin, direction):
        plane = Plane(origin, direction)
        probe = origin + np.array([1.0, 2.0, 3.0])
        foot = probe - plane.signed_distance(probe) * plane.normal
        assert abs(plane.signed_distance(foot)) <= 1e-9


class TestCouplingProperties:
    @given(lateral=st.floats(min_value=0, max_value=0.05),
           angular=st.floats(min_value=0, max_value=0.05))
    def test_excess_loss_nonnegative(self, lateral, angular):
        assert excess_loss_db(lateral, 10e-3, angular, 2.5e-3) >= 0.0

    @given(lateral=st.floats(min_value=0, max_value=0.02),
           extra=st.floats(min_value=1e-6, max_value=0.02))
    def test_power_monotone_in_lateral_offset(self, lateral, extra):
        design = link_10g_diverging()
        assert (design.received_power_dbm(1.75, lateral + extra, 0.0)
                <= design.received_power_dbm(1.75, lateral, 0.0))

    @given(margin=st.floats(min_value=0.1, max_value=40.0))
    def test_power_at_tolerance_is_sensitivity(self, margin):
        # At the tolerance the excess loss spends exactly the margin.
        tol = tolerance(margin, 10e-3, 2.5e-3, 0.0, 1.0)
        assert excess_loss_db(0.0, 10e-3, tol, 2.5e-3) == pytest.approx(
            margin, abs=1e-9)


class TestBeamProperties:
    @given(waist=st.floats(min_value=1e-4, max_value=0.05),
           divergence=st.floats(min_value=0.0, max_value=0.05),
           z1=st.floats(min_value=0.0, max_value=10.0),
           z2=st.floats(min_value=0.0, max_value=10.0))
    def test_diameter_monotone_in_range(self, waist, divergence, z1, z2):
        beam = GaussianBeam(waist, divergence)
        lo, hi = min(z1, z2), max(z1, z2)
        assert beam.diameter_at(lo) <= beam.diameter_at(hi) + 1e-12

    @given(waist=st.floats(min_value=1e-4, max_value=0.05),
           divergence=st.floats(min_value=1e-5, max_value=0.05),
           z=st.floats(min_value=0.1, max_value=10.0))
    def test_curvature_at_least_range(self, waist, divergence, z):
        beam = GaussianBeam(waist, divergence)
        assert beam.curvature_radius_m(z) >= z


class TestInverseProperty:
    @settings(max_examples=25, deadline=None)
    @given(v1=st.floats(min_value=-5.0, max_value=5.0),
           v2=st.floats(min_value=-5.0, max_value=5.0),
           reach=st.floats(min_value=0.5, max_value=2.5))
    def test_g_prime_inverts_g(self, v1, v2, reach):
        """For any reachable target, G'(point on G(v)) recovers v."""
        model = GmaModel(canonical_gma(np.radians(1.0)))
        target = Ray(*model.beam(v1, v2)).point_at(reach)
        result = solve_inverse(model, target)
        beam = Ray(*model.beam(result.v1, result.v2))
        assert beam.distance_to_point(target) < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(v1=st.floats(min_value=-10.0, max_value=10.0),
           v2=st.floats(min_value=-10.0, max_value=10.0),
           reach=st.floats(min_value=LINK_RANGE_MIN_M,
                           max_value=LINK_RANGE_MAX_M))
    def test_g_prime_over_the_full_cone(self, v1, v2, reach):
        """Over the whole +/-10 V coverage cone, from rest, G' either
        recovers the generating voltages within one DAQ step or raises
        its typed error: never a NaN, never a silent miss."""
        model = GmaModel(canonical_gma(np.radians(1.0)))
        target = Ray(*model.beam(v1, v2)).point_at(reach)
        try:
            result = solve_inverse(model, target)
        except InverseDivergedError:
            return
        assert math.isfinite(result.v1) and math.isfinite(result.v2)
        assert abs(result.v1 - v1) <= DEFAULT_VOLTAGE_STEP_V
        assert abs(result.v2 - v2) <= DEFAULT_VOLTAGE_STEP_V


#: ``Testbed.evaluation_poses``' envelope around the home pose.
EVAL_OFFSET_M = 0.15
EVAL_ANGLE_RAD = math.radians(6.0)


class TestPointingProperty:
    @settings(max_examples=100, deadline=None)
    @given(offset=st.tuples(*[st.floats(min_value=-EVAL_OFFSET_M,
                                        max_value=EVAL_OFFSET_M)] * 3),
           angles=st.tuples(*[st.floats(min_value=-EVAL_ANGLE_RAD,
                                        max_value=EVAL_ANGLE_RAD)] * 3),
           cold_seed=st.booleans())
    def test_point_over_the_evaluation_envelope(
            self, testbed, learned_system, offset, angles, cold_seed):
        """For a headset anywhere in the evaluation envelope, P on
        its (noise-free) report either settles on finite, in-range
        voltages that a further round would not move by a DAQ step, or
        raises its typed error: never a NaN, never a silent miss."""
        home = testbed.home_pose
        body = Pose(home.position + np.array(offset),
                    home.orientation @ euler_to_matrix(*angles))
        pose = testbed.tracker.true_report_transform(body)
        initial = cold_start_seed(learned_system, pose) if cold_seed \
            else (0.0, 0.0, 0.0, 0.0)
        try:
            command = point(learned_system, pose, initial=initial)
        except (PointingDivergedError, InverseDivergedError):
            return
        volts = (*command.tx_voltages, *command.rx_voltages)
        assert all(math.isfinite(v) and abs(v) <= DAQ_VOLTAGE_RANGE_V
                   for v in volts), volts
        # One more round; it raises if any voltage moves a full step.
        again = point(learned_system, pose, initial=volts,
                      max_iterations=1)
        moved = np.subtract((*again.tx_voltages, *again.rx_voltages),
                            volts)
        assert np.all(np.abs(moved) < DEFAULT_VOLTAGE_STEP_V), moved


class TestScheduleProperties:
    @settings(max_examples=30, deadline=None)
    @given(extent=st.floats(min_value=0.05, max_value=1.0),
           speeds=st.lists(st.floats(min_value=0.01, max_value=2.0),
                           min_size=1, max_size=4),
           t=st.floats(min_value=0.0, max_value=100.0))
    def test_offset_stays_in_extent(self, extent, speeds, t):
        schedule = StrokeSchedule(extent=extent, speeds=speeds)
        assert -1e-9 <= schedule.offset_at(t) <= extent + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(extent=st.floats(min_value=0.05, max_value=1.0),
           speeds=st.lists(st.floats(min_value=0.01, max_value=2.0),
                           min_size=1, max_size=4))
    def test_lipschitz_in_time(self, extent, speeds):
        """The carriage never moves faster than the segment speed."""
        schedule = StrokeSchedule(extent=extent, speeds=speeds)
        top = max(speeds)
        dt = 0.01
        t = 0.0
        while t < schedule.duration_s:
            step = abs(schedule.offset_at(t + dt) - schedule.offset_at(t))
            assert step <= top * dt + 1e-9
            t += 0.37  # sample irregularly
