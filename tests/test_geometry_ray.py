"""Unit tests for the :class:`Ray` oracle in ``tests/oracles.py``."""

import numpy as np
import pytest

from .oracles import Ray


class TestRay:
    def test_direction_normalized(self):
        ray = Ray([0, 0, 0], [0, 0, 5])
        assert np.allclose(ray.direction, [0, 0, 1])

    def test_point_at_is_metric(self):
        ray = Ray([1, 0, 0], [0, 2, 0])
        assert np.allclose(ray.point_at(3.0), [1, 3, 0])

    def test_point_at_zero_is_origin(self):
        ray = Ray([4, 5, 6], [1, 1, 1])
        assert np.allclose(ray.point_at(0.0), [4, 5, 6])

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            Ray([0, 0, 0], [0, 0, 0])

    def test_distance_to_point_on_ray_is_zero(self):
        ray = Ray([0, 0, 0], [1, 0, 0])
        assert ray.distance_to_point([7.3, 0, 0]) == pytest.approx(0.0)

    def test_distance_to_offset_point(self):
        ray = Ray([0, 0, 0], [1, 0, 0])
        assert ray.distance_to_point([5, 3, 4]) == pytest.approx(5.0)

    def test_distance_measured_to_line_not_segment(self):
        # Points "behind" the origin measure to the infinite line: the
        # TP algorithms treat beams as lines (gauge freedom).
        ray = Ray([0, 0, 0], [1, 0, 0])
        assert ray.distance_to_point([-2, 1, 0]) == pytest.approx(1.0)

    def test_closest_point_to(self):
        ray = Ray([0, 0, 0], [0, 1, 0])
        assert np.allclose(ray.closest_point_to([3, 5, 0]), [0, 5, 0])
