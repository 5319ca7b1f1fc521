"""Unit tests for repro.geometry.rotation."""

import numpy as np
import pytest

from repro.geometry import (
    euler_to_matrix,
    is_rotation_matrix,
    matrix_to_euler,
    rotation_angle,
    rotation_between,
    rotation_matrix,
)


class TestRotationMatrix:
    def test_identity_at_zero_angle(self):
        assert np.allclose(rotation_matrix([0, 0, 1], 0.0), np.eye(3))

    def test_quarter_turn_about_z(self):
        r = rotation_matrix([0, 0, 1], np.pi / 2)
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_is_proper_rotation(self):
        r = rotation_matrix([1, 2, 3], 0.7)
        assert is_rotation_matrix(r)

    def test_axis_is_invariant(self):
        axis = np.array([1.0, -1.0, 0.5])
        r = rotation_matrix(axis, 1.1)
        unit = axis / np.linalg.norm(axis)
        assert np.allclose(r @ unit, unit)

    def test_composition_adds_angles(self):
        axis = [0.0, 1.0, 0.0]
        combined = rotation_matrix(axis, 0.3) @ rotation_matrix(axis, 0.4)
        assert np.allclose(combined, rotation_matrix(axis, 0.7))

    def test_normalizes_axis(self):
        assert np.allclose(rotation_matrix([0, 0, 10], 0.5),
                           rotation_matrix([0, 0, 1], 0.5))

    def test_rotate_helper(self):
        assert np.allclose(rotation_matrix([1, 0, 0], np.pi) @ [0, 1, 0],
                           [0, -1, 0], atol=1e-12)


class TestEuler:
    def test_zero_angles_give_identity(self):
        assert np.allclose(euler_to_matrix(0, 0, 0), np.eye(3))

    def test_round_trip(self):
        for angles in [(0.1, -0.2, 0.3), (1.0, 0.5, -2.0),
                       (-0.7, 1.2, 0.05)]:
            m = euler_to_matrix(*angles)
            recovered = matrix_to_euler(m)
            assert np.allclose(recovered, angles, atol=1e-10)

    def test_pure_yaw(self):
        m = euler_to_matrix(0, 0, np.pi / 2)
        assert np.allclose(m @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_matrix_to_euler_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_to_euler(np.eye(4))

    def test_gimbal_lock_still_reconstructs(self):
        m = euler_to_matrix(0.4, np.pi / 2, 0.2)
        roll, pitch, yaw = matrix_to_euler(m)
        rebuilt = euler_to_matrix(roll, pitch, yaw)
        assert np.allclose(rebuilt, m, atol=1e-6)


class TestRotationAngle:
    def test_identity_is_zero(self):
        assert rotation_angle(np.eye(3)) == pytest.approx(0.0)

    def test_known_angle(self):
        r = rotation_matrix([0, 1, 0], 0.42)
        assert rotation_angle(r) == pytest.approx(0.42)

    def test_angle_is_axis_independent(self):
        a = rotation_angle(rotation_matrix([1, 0, 0], 0.9))
        b = rotation_angle(rotation_matrix([0.5, 0.5, 0.7], 0.9))
        assert a == pytest.approx(b)


class TestRotationBetween:
    def test_maps_from_to(self):
        r = rotation_between([1, 0, 0], [0, 0, 1])
        assert np.allclose(r @ [1, 0, 0], [0, 0, 1], atol=1e-12)

    def test_parallel_gives_identity(self):
        assert np.allclose(rotation_between([0, 2, 0], [0, 5, 0]),
                           np.eye(3))

    def test_antiparallel_still_maps(self):
        r = rotation_between([0, 0, 1], [0, 0, -1])
        assert np.allclose(r @ [0, 0, 1], [0, 0, -1], atol=1e-9)
        assert is_rotation_matrix(r)

    def test_arbitrary_pairs(self, rng):
        for _ in range(10):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            r = rotation_between(a, b)
            assert is_rotation_matrix(r)
            mapped = r @ (a / np.linalg.norm(a))
            assert np.allclose(mapped, b / np.linalg.norm(b), atol=1e-9)


class TestIsRotationMatrix:
    def test_accepts_rotations(self):
        assert is_rotation_matrix(rotation_matrix([1, 1, 1], 2.0))

    def test_rejects_reflection(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        assert not is_rotation_matrix(reflection)

    def test_rejects_scaled(self):
        assert not is_rotation_matrix(2.0 * np.eye(3))

    def test_rejects_non_square(self):
        assert not is_rotation_matrix(np.ones((2, 3)))

    def test_no_relative_slack_on_the_diagonal(self):
        # det = 1 exactly, but M @ M.T is off by ~8e-6 on the diagonal:
        # inside np.allclose's default rtol, outside tol=1e-6.
        m = np.diag([1.0 + 4e-6, 1.0, 1.0 / (1.0 + 4e-6)])
        assert not is_rotation_matrix(m, tol=1e-6)
        assert is_rotation_matrix(m, tol=1e-5)

    def test_pose_rejects_the_near_rotation(self):
        from repro.geometry import Pose
        m = np.diag([1.0 + 4e-6, 1.0, 1.0 / (1.0 + 4e-6)])
        with pytest.raises(ValueError):
            Pose(np.zeros(3), m)

    def test_rejects_nan(self):
        m = np.eye(3)
        m[0, 1] = np.nan
        assert not is_rotation_matrix(m)

    def test_rejects_sheared_rows(self):
        # Unit rows and det within 1e-14 of 1, but rows 0 and 1 are
        # 1e-7 from orthogonal: only the off-diagonal check sees it.
        eps = 1e-7
        sheared = np.array([[1.0, 0.0, 0.0],
                            [np.sin(eps), np.cos(eps), 0.0],
                            [0.0, 0.0, 1.0]])
        assert not is_rotation_matrix(sheared, tol=1e-8)
        assert is_rotation_matrix(sheared, tol=1e-6)
