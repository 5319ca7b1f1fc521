"""Unit tests for the G' iterative inverse (Section 4.3)."""

import numpy as np
import pytest

from repro.core import GmaModel, solve_inverse
from repro.core.inverse import InverseDivergedError
from repro.galvo import canonical_gma


@pytest.fixture()
def model():
    return GmaModel(canonical_gma(np.radians(1.0)))


class TestSolve:
    def test_beam_passes_through_target(self, model):
        # Pick a target the real beam can reach, then recover voltages.
        target = model.beam(1.3, -0.8).point_at(1.5)
        result = solve_inverse(model, target)
        assert result.miss_distance_m < 1e-6

    def test_recovers_generating_voltages(self, model):
        target = model.beam(2.0, 1.0).point_at(1.2)
        result = solve_inverse(model, target)
        assert result.v1 == pytest.approx(2.0, abs=2e-3)
        assert result.v2 == pytest.approx(1.0, abs=2e-3)

    def test_converges_in_paper_iteration_count(self, model):
        # "In our evaluations, the above converged in 2-4 iterations."
        counts = []
        for v1, v2 in [(0.5, 0.5), (-2.0, 1.5), (3.0, -3.0), (1.0, 4.0)]:
            target = model.beam(v1, v2).point_at(1.75)
            counts.append(solve_inverse(model, target).iterations)
        assert max(counts) <= 6
        assert min(counts) >= 1

    def test_warm_start_converges_faster_or_equal(self, model):
        target = model.beam(1.5, -1.5).point_at(1.75)
        cold = solve_inverse(model, target)
        warm = solve_inverse(model, target, v1=1.49, v2=-1.49)
        assert warm.iterations <= cold.iterations

    def test_off_axis_target_reached(self, model):
        # A target not generated from the model: any point in the cone.
        target = np.array([0.2, 0.3, 1.5])
        result = solve_inverse(model, target)
        beam = model.beam(result.v1, result.v2)
        assert beam.distance_to_point(target) < 1e-6

    def test_respects_voltage_step_threshold(self, model):
        target = model.beam(0.5, 0.5).point_at(1.0)
        coarse = solve_inverse(model, target, voltage_step_v=0.01)
        fine = solve_inverse(model, target, voltage_step_v=1e-6)
        assert fine.miss_distance_m <= coarse.miss_distance_m + 1e-9

    def test_unreachable_target_needs_unphysical_voltages(self, model):
        # A target far outside the coverage cone: the pure math may
        # still "solve" it (the model is unbounded in voltage), but the
        # answer must be visibly unphysical so the hardware layer's
        # range check rejects it -- or the iteration diverges outright.
        target = np.array([0.0, -10.0, 0.0])
        try:
            result = solve_inverse(model, target, max_iterations=8)
        except InverseDivergedError:
            return
        assert max(abs(result.v1), abs(result.v2)) > 10.0


class TestNonFiniteInputs:
    """A NaN or inf input is a typed error at the entry, not LAPACK noise."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_raises(self, model, bad, capfd):
        with pytest.raises(InverseDivergedError, match="finite"):
            solve_inverse(model, np.array([0.1, bad, 1.5]))
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("seed", [
        dict(v1=np.nan), dict(v2=np.nan), dict(v1=np.inf),
        dict(v2=-np.inf)])
    def test_non_finite_seed_raises(self, model, seed):
        with pytest.raises(InverseDivergedError, match="finite"):
            solve_inverse(model, np.array([0.1, 0.0, 1.5]), **seed)
