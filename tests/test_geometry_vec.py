"""Unit tests for repro.geometry.vec and the oracles' vector helpers."""

import numpy as np
import pytest

from repro.geometry import as_vec3, normalize

from .oracles import angle_between, cross, distance, dot, norm


class TestAsVec3:
    def test_accepts_list(self):
        v = as_vec3([1, 2, 3])
        assert v.shape == (3,)
        assert v.dtype == np.float64

    def test_accepts_tuple_and_array(self):
        assert np.allclose(as_vec3((1.0, 0.0, 0.0)), [1, 0, 0])
        assert np.allclose(as_vec3(np.array([0, 1, 0])), [0, 1, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_vec3([1.0, 2.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vec3(np.eye(3))


class TestNormNormalize:
    def test_norm_of_unit_axes(self):
        assert norm([1, 0, 0]) == pytest.approx(1.0)
        assert norm([0, 3, 4]) == pytest.approx(5.0)

    def test_normalize_returns_unit(self):
        v = normalize([3.0, 4.0, 12.0])
        assert norm(v) == pytest.approx(1.0)

    def test_normalize_preserves_direction(self):
        v = normalize([0.0, 0.0, 7.5])
        assert np.allclose(v, [0, 0, 1])

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0])

    def test_normalize_rejects_near_zero(self):
        with pytest.raises(ValueError):
            normalize([1e-15, 0.0, 0.0])


class TestDistanceDotCross:
    def test_distance(self):
        assert distance([0, 0, 0], [1, 2, 2]) == pytest.approx(3.0)

    def test_distance_symmetric(self):
        a, b = [1.0, -2.0, 0.5], [0.0, 4.0, 1.0]
        assert distance(a, b) == pytest.approx(distance(b, a))

    def test_dot_orthogonal(self):
        assert dot([1, 0, 0], [0, 1, 0]) == pytest.approx(0.0)

    def test_dot_is_float(self):
        assert isinstance(dot([1, 2, 3], [4, 5, 6]), float)

    def test_cross_right_handed(self):
        assert np.allclose(cross([1, 0, 0], [0, 1, 0]), [0, 0, 1])


class TestAngleBetween:
    """The oracle's ``angle_between``, which ``reference_evaluate``
    measures the channel's incidence angle with."""

    def test_parallel_is_zero(self):
        assert angle_between([1, 1, 0], [2, 2, 0]) == pytest.approx(
            0.0, abs=1e-7)

    def test_orthogonal_is_half_pi(self):
        assert angle_between([1, 0, 0], [0, 0, 5]) == pytest.approx(
            np.pi / 2)

    def test_antiparallel_is_pi(self):
        assert angle_between([1, 0, 0], [-3, 0, 0]) == pytest.approx(np.pi)

    def test_small_angle_accuracy(self):
        # The channel relies on mrad-level angle computations.
        theta = 1e-3
        v = [np.cos(theta), np.sin(theta), 0.0]
        assert angle_between([1, 0, 0], v) == pytest.approx(theta, rel=1e-6)
