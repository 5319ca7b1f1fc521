"""Unit tests for repro.vrh.pose."""

import numpy as np
import pytest

from repro.geometry import matrix_to_euler, rotation_matrix
from repro.vrh import Pose, speeds_between


class TestConstruction:
    def test_identity(self):
        pose = Pose.identity()
        assert np.allclose(pose.position, 0.0)
        assert np.allclose(pose.orientation, np.eye(3))

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Pose([0, 0, 0], np.diag([1.0, 1.0, -1.0]))

    def test_from_euler_round_trip(self):
        pose = Pose.from_euler([1, 2, 3], 0.1, -0.2, 0.3)
        assert np.allclose(matrix_to_euler(pose.orientation),
                           [0.1, -0.2, 0.3])

    def test_transform_round_trip(self):
        pose = Pose.from_euler([0.5, -0.1, 1.2], 0.2, 0.1, -0.4)
        t = pose.as_transform()
        rebuilt = Pose(t.translation, t.rotation)
        assert pose.almost_equal(rebuilt)


class TestDistances:
    def test_linear_distance(self):
        a = Pose([0, 0, 0], np.eye(3))
        b = Pose([3, 4, 0], np.eye(3))
        assert a.linear_distance_to(b) == pytest.approx(5.0)

    def test_angular_distance(self):
        a = Pose.identity()
        b = Pose([0, 0, 0], rotation_matrix([0, 0, 1], 0.3))
        assert a.angular_distance_to(b) == pytest.approx(0.3)

    def test_distances_are_symmetric(self):
        a = Pose.from_euler([1, 0, 0], 0.1, 0.0, 0.2)
        b = Pose.from_euler([0, 1, 0], -0.3, 0.2, 0.0)
        assert a.linear_distance_to(b) == pytest.approx(
            b.linear_distance_to(a))
        assert a.angular_distance_to(b) == pytest.approx(
            b.angular_distance_to(a))


class TestMoved:
    def test_translation(self):
        pose = Pose.identity().moved(translation=[1, 0, 0])
        assert np.allclose(pose.position, [1, 0, 0])

    def test_rotation_composes_in_world(self):
        pose = Pose.identity().moved(
            rotation=rotation_matrix([0, 0, 1], 0.5))
        assert Pose.identity().angular_distance_to(pose) == pytest.approx(
            0.5)


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
