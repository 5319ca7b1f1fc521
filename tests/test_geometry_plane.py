"""Unit tests for the :class:`Plane` oracle in ``tests/oracles.py``."""

import numpy as np
import pytest

from repro.geometry import NoIntersectionError

from .oracles import Plane, Ray


def project(plane, point):
    """Foot of the perpendicular from ``point``, via the signed distance."""
    p = np.asarray(point, dtype=float)
    return p - plane.signed_distance(p) * plane.normal


class TestPlaneBasics:
    def test_normal_normalized(self):
        plane = Plane([0, 0, 0], [0, 0, 4])
        assert np.allclose(plane.normal, [0, 0, 1])

    def test_signed_distance_signs(self):
        plane = Plane([0, 0, 0], [0, 0, 1])
        assert plane.signed_distance([0, 0, 2]) == pytest.approx(2.0)
        assert plane.signed_distance([0, 0, -3]) == pytest.approx(-3.0)

    def test_contains(self):
        plane = Plane([1, 1, 1], [1, 0, 0])
        assert plane.signed_distance([1, 9, -4]) == 0.0
        assert plane.signed_distance([1.1, 0, 0]) == pytest.approx(0.1)

    def test_project(self):
        plane = Plane([0, 0, 5], [0, 0, 1])
        assert np.allclose(project(plane, [3, 4, 9]), [3, 4, 5])

    def test_project_is_idempotent(self):
        plane = Plane([1, 2, 3], [0.3, -0.5, 0.8])
        p = project(plane, [4, -1, 0])
        assert np.allclose(project(plane, p), p)


class TestIntersectRay:
    def test_perpendicular_hit(self):
        plane = Plane([0, 0, 5], [0, 0, 1])
        ray = Ray([1, 2, 0], [0, 0, 1])
        assert np.allclose(plane.intersect_ray(ray), [1, 2, 5])

    def test_oblique_hit(self):
        plane = Plane([0, 0, 1], [0, 0, 1])
        ray = Ray([0, 0, 0], [1, 0, 1])
        hit = plane.intersect_ray(ray)
        assert np.allclose(hit, [1, 0, 1])

    def test_parallel_raises(self):
        plane = Plane([0, 0, 1], [0, 0, 1])
        ray = Ray([0, 0, 0], [1, 0, 0])
        with pytest.raises(NoIntersectionError):
            plane.intersect_ray(ray)

    def test_behind_raises_forward_only(self):
        plane = Plane([0, 0, -1], [0, 0, 1])
        ray = Ray([0, 0, 0], [0, 0, 1])
        with pytest.raises(NoIntersectionError):
            plane.intersect_ray(ray)

    def test_behind_allowed_when_not_forward_only(self):
        plane = Plane([0, 0, -1], [0, 0, 1])
        ray = Ray([0, 0, 0], [0, 0, 1])
        hit = plane.intersect_ray(ray, forward_only=False)
        assert np.allclose(hit, [0, 0, -1])

    def test_intersection_distance(self):
        plane = Plane([0, 0, 10], [0, 0, 1])
        ray = Ray([0, 0, 4], [0, 0, 1])
        assert plane.intersection_distance(ray) == pytest.approx(6.0)

    def test_intersection_distance_negative_behind(self):
        plane = Plane([0, 0, -2], [0, 0, 1])
        ray = Ray([0, 0, 0], [0, 0, 1])
        assert plane.intersection_distance(ray) == pytest.approx(-2.0)
