"""Unit tests for repro.geometry.transform: the one rigid-placement type."""

import numpy as np
import pytest

from repro.geometry import (
    Pose,
    euler_to_matrix,
    rotation_matrix,
    speeds_between,
)

from .oracles import Ray, apply_ray


def sample_transform():
    return Pose(np.array([1.0, -2.0, 0.5]),
                rotation_matrix([0, 0, 1], 0.6))


class TestConstruction:
    def test_identity(self):
        t = Pose.identity()
        assert np.allclose(t.position, 0.0)
        assert np.allclose(t.orientation, np.eye(3))
        assert np.allclose(t.apply_point([1, 2, 3]), [1, 2, 3])

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError, match="orientation"):
            Pose(np.zeros(3), np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_position(self, bad):
        with pytest.raises(ValueError, match="position"):
            Pose([0.0, bad, 0.0], np.eye(3))

    def test_from_params_round_trip(self):
        params = np.array([0.1, 0.2, -0.3, 0.4, -0.5, 0.6])
        t = Pose.from_params(params)
        assert np.allclose(t.to_params(), params, atol=1e-10)

    def test_from_params_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Pose.from_params([1, 2, 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_params_rejects_non_finite_position(self, bad):
        with pytest.raises(ValueError, match="position"):
            Pose.from_params([bad, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_fields_are_read_only(self):
        pose = Pose(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="read-only"):
            pose.position[0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            pose.orientation[0, 0] = -1.0

    def test_keeps_its_own_copy_of_the_callers_arrays(self):
        position, orientation = np.zeros(3), np.eye(3)
        pose = Pose(position, orientation)
        position[1] = np.nan
        orientation[0, 0] = -1.0
        assert np.array_equal(pose.position, np.zeros(3))
        assert np.array_equal(pose.orientation, np.eye(3))


class TestApplication:
    def test_point_gets_rotation_and_translation(self):
        t = Pose(np.array([10.0, 0.0, 0.0]),
                 rotation_matrix([0, 0, 1], np.pi / 2))
        assert np.allclose(t.apply_point([1, 0, 0]), [10, 1, 0],
                           atol=1e-12)

    def test_direction_gets_rotation_only(self):
        t = Pose(np.array([10.0, 0.0, 0.0]),
                 rotation_matrix([0, 0, 1], np.pi / 2))
        assert np.allclose(t.apply_direction([1, 0, 0]), [0, 1, 0],
                           atol=1e-12)

    def test_ray_transforms_consistently(self):
        t = sample_transform()
        ray = Ray([0.2, 0.3, 0.4], [0, 1, 0])
        out = Ray(*t.apply_ray((0.2, 0.3, 0.4), (0.0, 1.0, 0.0)))
        # The image of a point on the ray lies on the transformed ray.
        image = t.apply_point(ray.point_at(2.0))
        assert out.distance_to_point(image) == pytest.approx(0.0,
                                                             abs=1e-12)

    def test_ray_agrees_with_point_and_direction(self):
        t = sample_transform()
        origin, direction = t.apply_ray((0.2, 0.3, 0.4), (0.6, 0.0, 0.8))
        want = apply_ray(t, Ray([0.2, 0.3, 0.4], [0.6, 0.0, 0.8]))
        np.testing.assert_allclose(origin, want.origin, rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(direction, want.direction, rtol=0,
                                   atol=1e-15)


class TestAlgebra:
    def test_compose_order(self):
        # compose applies the *other* transform first.
        shift = Pose(np.array([1.0, 0.0, 0.0]), np.eye(3))
        turn = Pose(np.zeros(3), rotation_matrix([0, 0, 1], np.pi / 2))
        composed = turn.compose(shift)
        assert np.allclose(composed.apply_point([0, 0, 0]), [0, 1, 0],
                           atol=1e-12)

    def test_inverse_undoes(self):
        t = sample_transform()
        round_trip = t.inverse().compose(t)
        assert round_trip.almost_equal(Pose.identity(), tol=1e-12)

    def test_inverse_of_inverse(self):
        t = sample_transform()
        assert t.inverse().inverse().almost_equal(t, tol=1e-12)

    def test_compose_associative(self):
        a = sample_transform()
        b = Pose(np.array([0.0, 1.0, 0.0]), rotation_matrix([1, 0, 0], 0.3))
        c = Pose(np.array([0.5, 0.0, -1.0]),
                 rotation_matrix([0, 1, 0], -0.8))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.almost_equal(right, tol=1e-10)

    def test_almost_equal_tolerance(self):
        t = sample_transform()
        nudged = Pose(t.position + 1e-12, t.orientation)
        assert t.almost_equal(nudged, tol=1e-9)
        assert not t.almost_equal(Pose(t.position + 1.0, t.orientation))


class TestMotion:
    def test_linear_distance(self):
        a = Pose([0, 0, 0], np.eye(3))
        b = Pose([3, 4, 0], np.eye(3))
        assert a.linear_distance_to(b) == pytest.approx(5.0)

    def test_angular_distance(self):
        a = Pose.identity()
        b = Pose([0, 0, 0], rotation_matrix([0, 0, 1], 0.3))
        assert a.angular_distance_to(b) == pytest.approx(0.3)

    def test_distances_are_symmetric(self):
        a = Pose([1, 0, 0], euler_to_matrix(0.1, 0.0, 0.2))
        b = Pose([0, 1, 0], euler_to_matrix(-0.3, 0.2, 0.0))
        assert a.linear_distance_to(b) == pytest.approx(
            b.linear_distance_to(a))
        assert a.angular_distance_to(b) == pytest.approx(
            b.angular_distance_to(a))


class TestSpeedsBetween:
    def test_values(self):
        a = Pose.identity()
        b = Pose([0.1, 0, 0], rotation_matrix([0, 0, 1], 0.02))
        lin, ang = speeds_between(a, b, 0.1)
        assert lin == pytest.approx(1.0)
        assert ang == pytest.approx(0.2)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            speeds_between(Pose.identity(), Pose.identity(), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_dt(self, bad):
        with pytest.raises(ValueError, match="finite"):
            speeds_between(Pose.identity(), Pose.identity(), bad)
