"""Unit tests for repro.geometry.transform."""

import numpy as np
import pytest

from repro.geometry import RigidTransform, rotation_matrix

from .oracles import Ray, apply_ray


def sample_transform():
    return RigidTransform(rotation_matrix([0, 0, 1], 0.6),
                          np.array([1.0, -2.0, 0.5]))


class TestConstruction:
    def test_identity(self):
        t = RigidTransform.identity()
        assert np.allclose(t.apply_point([1, 2, 3]), [1, 2, 3])

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_from_params_round_trip(self):
        params = np.array([0.1, 0.2, -0.3, 0.4, -0.5, 0.6])
        t = RigidTransform.from_params(params)
        assert np.allclose(t.to_params(), params, atol=1e-10)

    def test_from_params_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            RigidTransform.from_params([1, 2, 3])


class TestApplication:
    def test_point_gets_rotation_and_translation(self):
        t = RigidTransform(rotation_matrix([0, 0, 1], np.pi / 2),
                           np.array([10.0, 0.0, 0.0]))
        assert np.allclose(t.apply_point([1, 0, 0]), [10, 1, 0],
                           atol=1e-12)

    def test_direction_gets_rotation_only(self):
        t = RigidTransform(rotation_matrix([0, 0, 1], np.pi / 2),
                           np.array([10.0, 0.0, 0.0]))
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
        shift = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        turn = RigidTransform(rotation_matrix([0, 0, 1], np.pi / 2),
                              np.zeros(3))
        composed = turn.compose(shift)
        assert np.allclose(composed.apply_point([0, 0, 0]), [0, 1, 0],
                           atol=1e-12)

    def test_inverse_undoes(self):
        t = sample_transform()
        round_trip = t.inverse().compose(t)
        assert round_trip.almost_equal(RigidTransform.identity(),
                                       tol=1e-12)

    def test_inverse_of_inverse(self):
        t = sample_transform()
        assert t.inverse().inverse().almost_equal(t, tol=1e-12)

    def test_compose_associative(self):
        a = sample_transform()
        b = RigidTransform(rotation_matrix([1, 0, 0], 0.3),
                           np.array([0.0, 1.0, 0.0]))
        c = RigidTransform(rotation_matrix([0, 1, 0], -0.8),
                           np.array([0.5, 0.0, -1.0]))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.almost_equal(right, tol=1e-10)

    def test_almost_equal_tolerance(self):
        t = sample_transform()
        nudged = RigidTransform(t.rotation, t.translation + 1e-12)
        assert t.almost_equal(nudged, tol=1e-9)
        assert not t.almost_equal(
            RigidTransform(t.rotation, t.translation + 1.0))
