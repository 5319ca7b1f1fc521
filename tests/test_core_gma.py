"""Unit tests for the GMA model wrapper and its vectorized trace.

The component-wise kernel (:func:`repro.core.gma.trace_rows`) must
equal the ``np.cross``/``einsum`` oracles in ``tests/oracles.py`` bit
for bit (NaN-equal) on shared, per-row and stacked layouts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GmaModel, board_hits, trace_batch
from repro.core.gma import _DIRECTION_ROWS, layout, trace_rows
from repro.core.kspace import BOARD_NORMAL, BOARD_POINT
from repro.galvo import canonical_gma
from repro.geometry import Pose, rotation_matrix

from .oracles import (
    BOARD_PLANE,
    Ray,
    reference_board_hits,
    reference_trace,
    reference_trace_batch,
    reference_trace_rows,
    second_mirror_plane,
)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@pytest.fixture()
def model():
    return GmaModel(canonical_gma(np.radians(1.0)))


class TestGmaModel:
    def test_beam_matches_scalar_trace(self, model):
        origin, direction = model.beam(0.7, -0.4)
        reference = reference_trace(model.params, 0.7, -0.4)
        assert np.allclose(origin, reference.origin)
        assert np.allclose(direction, reference.direction)

    def test_second_mirror_plane_holds_origin(self, model):
        plane = second_mirror_plane(model.params, model.params.theta1 * 0.6)
        origin, _ = model.beam(1.1, 0.6)
        assert abs(plane.signed_distance(origin)) <= 1e-9

    def test_transformed_model(self, model):
        t = Pose(np.array([1.0, 0.0, 0.0]),
                 rotation_matrix([0, 0, 1], 0.3))
        moved = model.transformed(t)
        expected_origin, expected_direction = t.apply_ray(
            *model.beam(0.5, 0.5))
        origin, direction = moved.beam(0.5, 0.5)
        assert np.allclose(origin, expected_origin, atol=1e-12)
        assert np.allclose(direction, expected_direction, atol=1e-12)


class TestTraceBatch:
    def test_matches_scalar_trace(self, model):
        v1 = np.array([-2.0, 0.0, 1.5, 3.3])
        v2 = np.array([1.0, 0.0, -0.5, 2.2])
        origins, directions = trace_batch(model.params.to_vector(), v1, v2)
        for i in range(len(v1)):
            origin, direction = model.beam(float(v1[i]), float(v2[i]))
            assert np.allclose(origins[i], origin, atol=1e-12)
            assert np.allclose(directions[i], direction, atol=1e-12)

    def test_handles_single_sample(self, model):
        origins, directions = trace_batch(
            model.params.to_vector(), np.array([0.5]), np.array([0.5]))
        assert origins.shape == (1, 3)
        assert directions.shape == (1, 3)

    def test_large_batch_shape(self, model):
        n = 500
        v = np.linspace(-4, 4, n)
        origins, directions = trace_batch(model.params.to_vector(), v, -v)
        assert origins.shape == (n, 3)
        assert np.all(np.isfinite(origins))


class TestBoardHits:
    def test_matches_plane_intersection(self, model):
        # Hardware placed facing a board (like the K-space rig).
        flip = Pose(np.array([0.0, 0.0, 1.5]),
                    rotation_matrix([1, 0, 0], np.pi))
        placed = model.transformed(flip)
        v1 = np.array([0.3, -1.2])
        v2 = np.array([-0.8, 0.9])
        hits = board_hits(placed.params.to_vector(), v1, v2, BOARD_POINT,
                          BOARD_NORMAL)
        for i in range(2):
            beam = Ray(*placed.beam(float(v1[i]), float(v2[i])))
            expected = BOARD_PLANE.intersect_ray(beam)
            assert np.allclose(hits[i], expected, atol=1e-10)

    def test_parallel_beam_yields_nonfinite(self, model):
        # The canonical rest beam travels +z; a plane with normal +y is
        # parallel to it and can never be hit.
        hits = board_hits(model.params.to_vector(),
                          np.array([0.0]), np.array([0.0]),
                          np.array([10.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0]))
        assert not np.all(np.isfinite(hits))


def random_vector(rng):
    """A 25-parameter GMA near the canonical layout, as a fit visits."""
    return (canonical_gma(np.radians(1.0)).to_vector()
            + rng.normal(0.0, 0.05, size=25))


def unit_layout(vector):
    rows = layout(vector).copy()
    directions = rows[list(_DIRECTION_ROWS)]
    rows[list(_DIRECTION_ROWS)] = directions / np.linalg.norm(
        directions, axis=-1, keepdims=True)
    return rows


def make_parallel(rows, row):
    """Turn one row's input beam parallel to its first mirror.

    The beam runs along the mirror's rotation axis and the normal is
    perpendicular to it, so every rotation keeps ``x0 . n1`` exactly 0.
    """
    rows[1, row] = rows[4, row] = [0.0, 0.0, 1.0]  # x0 = r1
    rows[2, row] = [1.0, 0.0, 0.0]                 # n1 is perpendicular


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


class TestTraceRowsMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_shared_layout(self, seed):
        rng = np.random.default_rng(seed)
        rows = unit_layout(random_vector(rng))
        n = int(rng.integers(1, 40))
        angles = rng.normal(0.0, 0.1, size=(2, n))
        assert_bitwise(trace_rows(rows, *angles),
                       reference_trace_rows(rows, *angles))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_per_row_layout_with_a_parallel_beam(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        rows = unit_layout(random_vector(rng))[:, None] + rng.normal(
            0.0, 0.01, size=(8, n, 3))
        make_parallel(rows, int(rng.integers(0, n)))
        angles = rng.normal(0.0, 0.1, size=(2, n))
        got = trace_rows(rows, *angles)
        assert not np.isfinite(got[0]).all()
        assert_bitwise(got, reference_trace_rows(rows, *angles))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_stacked_models(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 30))
        n = int(rng.integers(1, 40))
        stack = random_vector(rng) + rng.normal(0.0, 0.01, size=(k, 25))
        v1, v2 = rng.uniform(-9.0, 9.0, size=(2, n))
        assert_bitwise(trace_batch(stack, v1, v2),
                       reference_trace_batch(stack, v1, v2))
        assert_bitwise(trace_batch(stack[0], v1, v2),
                       reference_trace_batch(stack[0], v1, v2))
        assert_bitwise([board_hits(stack, v1, v2, BOARD_POINT,
                                   BOARD_NORMAL)],
                       [reference_board_hits(stack, v1, v2, BOARD_PLANE)])

    def test_stacked_model_with_a_parallel_beam(self):
        rng = np.random.default_rng(3)
        stack = random_vector(rng) + rng.normal(0.0, 0.01, size=(4, 25))
        stack[2, 3:6] = stack[2, 12:15] = [0.0, 0.0, 1.0]
        stack[2, 6:9] = [1.0, 0.0, 0.0]
        v1, v2 = rng.uniform(-9.0, 9.0, size=(2, 7))
        got = trace_batch(stack, v1, v2)
        assert not np.isfinite(got[0][2]).any()
        assert np.isfinite(got[0][[0, 1, 3]]).all()
        assert_bitwise(got, reference_trace_batch(stack, v1, v2))
