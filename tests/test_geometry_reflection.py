"""Unit tests for the reflection operator ``R`` (Section 4.1).

``reflect_direction``/``reflect_ray`` live in ``tests/oracles.py``: the
package computes ``G`` on floats, and these are the building blocks of
the object-path reference it is checked against.
"""

import numpy as np
import pytest

from repro.geometry import NoIntersectionError

from .oracles import Plane, Ray, angle_between, reflect_direction, reflect_ray


class TestReflectDirection:
    def test_normal_incidence_reverses(self):
        out = reflect_direction([0, 0, -1], [0, 0, 1])
        assert np.allclose(out, [0, 0, 1])

    def test_45_degree_turn(self):
        # The galvo geometry: beam along +x off a mirror at 45 degrees
        # turns to +y.
        out = reflect_direction([1, 0, 0], [-1, 1, 0])
        assert np.allclose(out, [0, 1, 0], atol=1e-12)

    def test_normal_sign_does_not_matter(self):
        a = reflect_direction([1, 0, 0], [-1, 1, 0])
        b = reflect_direction([1, 0, 0], [1, -1, 0])
        assert np.allclose(a, b)

    def test_preserves_length(self):
        out = reflect_direction([0.3, -0.5, 0.81], [0.2, 0.9, -0.1])
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_grazing_incidence_nearly_unchanged(self):
        out = reflect_direction([1, 0, 1e-6], [0, 0, 1])
        assert np.allclose(out, [1, 0, -1e-6], atol=1e-9)

    def test_angle_of_incidence_equals_reflection(self, rng):
        normal = np.array([0.0, 0.0, 1.0])
        for _ in range(5):
            d = rng.normal(size=3)
            d[2] = -abs(d[2]) - 0.1  # heading into the mirror
            out = reflect_direction(d, normal)
            incoming = angle_between(-np.asarray(d), normal)
            outgoing = angle_between(out, normal)
            assert incoming == pytest.approx(outgoing, abs=1e-9)


class TestReflectRay:
    def test_origin_is_strike_point(self):
        mirror = Plane([0, 0, 1], [0, 0, 1])
        ray = Ray([0, 0, 0], [0, 0, 1])
        out = reflect_ray(ray, mirror)
        assert np.allclose(out.origin, [0, 0, 1])

    def test_misses_raise(self):
        mirror = Plane([0, 0, -1], [0, 0, 1])
        ray = Ray([0, 0, 0], [0, 0, 1])
        with pytest.raises(NoIntersectionError):
            reflect_ray(ray, mirror)

    def test_backwards_allowed_with_flag(self):
        mirror = Plane([0, 0, -1], [0, 0, 1])
        ray = Ray([0, 0, 0], [0, 0, 1])
        out = reflect_ray(ray, mirror, forward_only=False)
        assert np.allclose(out.origin, [0, 0, -1])

    def test_double_reflection_recovers_direction(self):
        # Two parallel mirrors: the beam exits parallel to how it came.
        m1 = Plane([0, 0, 1], [0, 1, 1])
        m2 = Plane([0, 5, 1], [0, 1, 1])
        ray = Ray([0, 0, 0], [0, 0, 1])
        once = reflect_ray(ray, m1)
        twice = reflect_ray(once, m2, forward_only=False)
        assert np.allclose(np.abs(twice.direction), [0, 0, 1], atol=1e-12)
