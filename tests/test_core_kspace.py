"""Unit tests for the K-space calibration machinery."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.core import (
    BoardRig,
    PointingDivergedError,
    fit_gma,
    interior_grid_points,
)
from repro.core.kspace import BoardSample, _board_hit, _prior_sigmas
from repro.galvo import GalvoHardware, canonical_gma
from repro.geometry import NoIntersectionError, Pose, euler_to_matrix
from repro.simulate import Testbed

from .oracles import (
    BOARD_PLANE,
    Ray,
    beam_board_hit,
    reference_voltages_hitting,
    warp_bias,
)


def board_hardware(seed=0, nonlinearity=0.0):
    """Hardware placed facing the board, K-space style."""
    params = canonical_gma(np.radians(1.0))
    flip = Pose(np.zeros(3), euler_to_matrix(np.pi, 0.0, 0.0))
    placed = params.transformed(flip)
    # Land the second mirror at z = 1.5 m.
    target = np.array([0.0, 0.0, constants.KSPACE_BOARD_DISTANCE_M])
    translation = target - placed.q2
    placed = placed.transformed(Pose(translation, np.eye(3)))
    return GalvoHardware(placed, nonlinearity=nonlinearity,
                         rng=np.random.default_rng(seed))


class TestInteriorGrid:
    def test_paper_sample_count(self):
        grid = interior_grid_points()
        assert len(grid) == constants.KSPACE_INTERIOR_SAMPLES  # 266

    def test_centered_on_board(self):
        grid = interior_grid_points()
        center = grid.mean(axis=0)
        assert np.allclose(center, [0.0, 0.0], atol=1e-9)

    def test_one_inch_spacing(self):
        grid = interior_grid_points()
        xs = np.unique(grid[:, 0])
        assert np.allclose(np.diff(xs), constants.KSPACE_CELL_SIZE_M)

    def test_custom_dimensions(self):
        grid = interior_grid_points(columns=5, rows=4, cell_m=0.01)
        assert len(grid) == 4 * 3


class TestBoardRig:
    def test_beam_hits_board(self):
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(1))
        rig.hardware.apply(0.0, 0.0)
        hit = beam_board_hit(rig)
        assert abs(hit[2]) < 1e-9  # on the z=0 plane
        assert np.linalg.norm(hit[:2]) < 0.1  # near board center

    def test_warp_bias_is_systematic(self):
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(1))
        a = warp_bias(rig, [0.1, 0.05])
        b = warp_bias(rig, [0.1, 0.05])
        assert np.allclose(a, b)  # same point, same bias

    def test_warp_bias_bounded(self):
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(1))
        for point in interior_grid_points()[:30]:
            assert np.linalg.norm(warp_bias(rig, point)) <= \
                np.sqrt(2) * rig.warp_bias_m + 1e-12

    def test_voltages_hitting_converges(self):
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(1),
                       warp_bias_m=0.0)
        v1, v2 = rig.voltages_hitting([0.1, -0.05])
        rig.hardware.apply(v1, v2)
        hit = beam_board_hit(rig)[:2]
        assert np.linalg.norm(hit - [0.1, -0.05]) < 1e-4

    def test_collect_samples_count_and_targets(self):
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(2))
        grid = interior_grid_points()[:10]
        samples = rig.collect_samples(grid)
        assert len(samples) == 10
        for sample, target in zip(samples, grid):
            assert sample.x == pytest.approx(target[0])
            assert sample.y == pytest.approx(target[1])

    def test_unreachable_target_raises(self):
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(1))
        with pytest.raises(RuntimeError):
            rig.voltages_hitting([5.0, 5.0])  # far outside the cone


class TestBoardHit:
    """``evaluate_fit``'s board hit against :class:`Plane.intersect_ray`,
    bit for bit when the direction's length is ``np.linalg.norm``'s."""

    @settings(max_examples=200, deadline=None)
    @given(origin=st.tuples(*[st.floats(-0.2, 0.2)] * 2
                            + [st.floats(1.0, 2.0)]),
           direction=st.tuples(*[st.floats(-0.3, 0.3)] * 2
                               + [st.floats(-1.2, -0.8)]))
    def test_matches_the_plane_oracle_bitwise(self, origin, direction):
        x, y = _board_hit(origin, direction,
                          float(np.linalg.norm(direction)))
        want = BOARD_PLANE.intersect_ray(Ray(origin, direction))
        assert (x, y) == tuple(want[:2].tolist())

    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0),
                                           (0.0, 0.0, 1.0)])
    def test_parallel_or_behind_misses(self, direction):
        # Parallel to the board, or pointing away from it.
        with pytest.raises(NoIntersectionError):
            _board_hit((0.0, 0.0, 1.5), direction, 1.0)


class TestBoardLoopInputs:
    """Bad inputs and degenerate readings are typed errors."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_raises_before_any_command(self, bad):
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(1))
        state = rig.hardware.rng.bit_generator.state
        with pytest.raises(PointingDivergedError, match="finite"):
            rig.voltages_hitting([bad, 0.0])
        assert rig.hardware.rng.bit_generator.state == state

    def test_frozen_beam_is_a_singular_jacobian(self, monkeypatch):
        # The spot does not move with the voltages: determinant 0.
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(1))
        monkeypatch.setattr(rig.hardware, "output_beam",
                            lambda: ((0.0, 0.0, 1.5), (0.0, 0.0, -1.0)))
        with pytest.raises(PointingDivergedError, match="singular"):
            rig.voltages_hitting([0.1, -0.05])

    def test_overflowing_step_raises(self, monkeypatch):
        # One mirror moves the spot by a subnormal distance: the
        # determinant is non-zero, the Newton step is infinite.
        rig = BoardRig(board_hardware(), rng=np.random.default_rng(1),
                       warp_bias_m=0.0)

        def beam():
            v1, v2 = rig.hardware.voltages
            return (1e-310 * v1, v2, 1.5), (0.0, 0.0, -1.0)

        monkeypatch.setattr(rig.hardware, "output_beam", beam)
        with pytest.raises(PointingDivergedError, match="non-finite"):
            rig.voltages_hitting([0.1, 0.0])


class TestBoardLoopMatchesOracle:
    """The float loop against the Ray/Plane/lstsq reference."""

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("side", ["tx_hardware", "rx_hardware"])
    def test_samples_commands_and_jitter_draws(self, seed, side):
        hardware = getattr(Testbed(seed=seed), side)
        rigs, applies = [], []
        for _ in range(2):
            copied = copy.deepcopy(hardware)
            count = [0]

            def apply(v1, v2, copied=copied, count=count):
                count[0] += 1
                return GalvoHardware.apply(copied, v1, v2)

            copied.apply = apply
            rigs.append(BoardRig(copied, rng=np.random.default_rng(seed)))
            applies.append(count)
        fast, reference = rigs
        reference.voltages_hitting = (
            lambda target: reference_voltages_hitting(reference, target))
        grid = interior_grid_points()
        got = fast.collect_samples(grid)
        want = reference.collect_samples(grid)
        assert len(got) == len(want) == len(grid)
        for a, b in zip(got, want):
            assert (a.x, a.y) == (b.x, b.y)
            assert abs(a.v1 - b.v1) <= 1e-9
            assert abs(a.v2 - b.v2) <= 1e-9
        assert applies[0][0] == applies[1][0] > 3 * len(grid)
        assert (fast.hardware.rng.bit_generator.state
                == reference.hardware.rng.bit_generator.state)
        assert (fast.rng.bit_generator.state
                == reference.rng.bit_generator.state)


class TestFitGma:
    def test_rejects_empty_samples(self):
        with pytest.raises(ValueError):
            fit_gma([], canonical_gma(np.radians(1.0)))

    def test_perfect_hardware_fits_tightly(self):
        # Zero noise, zero warp, zero nonlinearity: the fit should
        # predict held-out board hits to within the DAC/jitter floor.
        hardware = board_hardware(seed=3)
        rig = BoardRig(hardware, rng=np.random.default_rng(3),
                       eye_noise_m=0.0, warp_bias_m=0.0)
        grid = interior_grid_points()[::6]
        samples = rig.collect_samples(grid)
        model = fit_gma(samples, hardware.params)
        holdout = interior_grid_points()[3::12]
        for target in holdout:
            v1, v2 = rig.voltages_hitting(target)
            predicted = BOARD_PLANE.intersect_ray(
                Ray(*model.beam(v1, v2)))[:2]
            assert np.linalg.norm(predicted - target) < 0.4e-3

    def test_prior_sigmas_structure(self):
        initial = canonical_gma(np.radians(1.0)).to_vector()
        sigmas = _prior_sigmas(initial)
        assert sigmas.shape == (25,)
        assert np.all(sigmas > 0)
        # theta prior scales with theta itself.
        assert sigmas[24] == pytest.approx(0.02 * initial[24])


class TestBoardSample:
    def test_is_value_object(self):
        a = BoardSample(x=0.1, y=0.2, v1=1.0, v2=-1.0)
        b = BoardSample(x=0.1, y=0.2, v1=1.0, v2=-1.0)
        assert a == b
