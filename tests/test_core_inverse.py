"""Unit tests for the G' iterative inverse (Section 4.3)."""

import numpy as np
import pytest

from repro.core import GmaModel, cold_start_seed, inverse, point, solve_inverse
from repro.core.inverse import DEFAULT_VOLTAGE_STEP_V, InverseDivergedError
from repro.galvo import canonical_gma
from repro.simulate import Testbed

from .oracles import reference_solve


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


class TestSingularBasis:
    def test_voltage_blind_model_raises(self):
        # theta1 so small that the epsilon beams coincide with the base
        # beam: the finite-difference basis is singular.
        model = GmaModel(canonical_gma(1e-300))
        with pytest.raises(InverseDivergedError, match="singular"):
            solve_inverse(model, np.array([0.2, 0.3, 1.5]))


class TestMatchesOracle:
    """The float ``G'`` against the Ray/Plane/lstsq reference, on the
    calibrated system and 300 cold plus 300 warm tracker reports."""

    REPORTS = 300

    @pytest.fixture(scope="class")
    def reports(self):
        rig = Testbed(seed=7)
        cold, warm = [], []
        for pose in rig.evaluation_poses(self.REPORTS):
            cold.append(rig.tracker.report(pose))
            warm.append(rig.tracker.report(pose))
        return cold, warm

    @staticmethod
    def assert_close(got, want):
        assert got.iterations == want.iterations
        for name in ("v_tx1", "v_tx2", "v_rx1", "v_rx2"):
            assert abs(getattr(got, name) - getattr(want, name)) \
                <= DEFAULT_VOLTAGE_STEP_V

    def test_solve_calls(self, learned_system, reports, monkeypatch):
        calls = []
        fast = inverse.solve

        def recording(model, target, v1=0.0, v2=0.0, **kwargs):
            result = fast(model, target, v1, v2, **kwargs)
            calls.append((model, target, v1, v2, result))
            return result

        monkeypatch.setattr(inverse, "solve", recording)
        cold, warm = reports
        for cold_report, warm_report in zip(cold, warm):
            seed = cold_start_seed(learned_system, cold_report)
            command = point(learned_system, cold_report, initial=seed)
            point(learned_system, warm_report, initial=(
                command.v_tx1, command.v_tx2, command.v_rx1, command.v_rx2))
        assert len(calls) >= 4 * self.REPORTS
        for model, target, v1, v2, got in calls:
            want = reference_solve(model, target, v1, v2)
            assert got.iterations == want.iterations
            assert abs(got.v1 - want.v1) <= DEFAULT_VOLTAGE_STEP_V
            assert abs(got.v2 - want.v2) <= DEFAULT_VOLTAGE_STEP_V
            # The two misses agree within ~3e-15 m, while the misses
            # themselves reach ~1e-11 m (median) to ~3e-9 m, so a solve
            # reporting no miss at all fails this bound.
            assert abs(got.miss_distance_m - want.miss_distance_m) \
                <= 1e-14

    def test_point(self, learned_system, reports, monkeypatch):
        cold, warm = reports
        for cold_report, warm_report in zip(cold, warm):
            seed = cold_start_seed(learned_system, cold_report)
            got_cold = point(learned_system, cold_report, initial=seed)
            got_warm = point(learned_system, warm_report, initial=(
                got_cold.v_tx1, got_cold.v_tx2,
                got_cold.v_rx1, got_cold.v_rx2))
            with monkeypatch.context() as patched:
                patched.setattr(inverse, "solve", reference_solve)
                want_seed = cold_start_seed(learned_system, cold_report)
                want_cold = point(learned_system, cold_report,
                                  initial=want_seed)
                want_warm = point(learned_system, warm_report, initial=(
                    want_cold.v_tx1, want_cold.v_tx2,
                    want_cold.v_rx1, want_cold.v_rx2))
            assert np.allclose(seed, want_seed, rtol=0.0,
                               atol=DEFAULT_VOLTAGE_STEP_V)
            self.assert_close(got_cold, want_cold)
            self.assert_close(got_warm, want_warm)
