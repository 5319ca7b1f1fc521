"""The numpy Levenberg-Marquardt behind the Section 4 fits.

:mod:`repro.core.lsq` replaced ``scipy.optimize.least_squares``, which
stays in ``tests/oracles.py`` as the reference.  On real calibrations
(testbeds 3 and 7, and a mapping-only refit after tracker drift) the
fits must reach the reference's cost to 1e-9 relative, predict the
same board hits to 1e-8 m, and make ``P`` command the same voltages to
within one DAQ step with the same iteration counts.  On problems with
known answers the solver must find them, never take a non-finite
step, and return its best point when it runs out of evaluations.
Bad inputs are rejected where they enter the fits.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro.simulate.rig as rig
from repro.core import BoardSample, fit_gma, fit_mapping, lsq, point, remap
from repro.core.gma import board_hits
from repro.core.inverse import DEFAULT_VOLTAGE_STEP_V
from repro.core.kspace import BOARD_NORMAL, BOARD_POINT
from repro.core.lsq import (
    forward_jacobian,
    forward_steps,
    levenberg_marquardt,
)
from repro.geometry import Pose
from repro.simulate import Testbed

from .oracles import (
    gma_fit_residuals,
    reference_fit_gma,
    reference_fit_mapping,
    scalar_coincidence_residuals,
)

COST_RTOL = 1e-9
BOARD_HIT_TOL_M = 1e-8


class Recorded:
    """A calibration run with the inputs its two fits were given."""

    def __init__(self, seed):
        self.gma_inputs = []
        self.mapping_input = None

        def record_gma(samples, guess):
            self.gma_inputs.append((samples, guess))
            return fit_gma(samples, guess)

        def record_mapping(tx, rx, samples, initial):
            self.mapping_input = (tx, rx, samples, initial)
            return fit_mapping(tx, rx, samples, initial)

        self.testbed = Testbed(seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rig, "fit_gma", record_gma)
            patch.setattr(rig, "fit_mapping", record_mapping)
            self.outcome = self.testbed.calibrate()
        self.models = (self.outcome.tx_kspace_model,
                       self.outcome.rx_kspace_model)
        self.reference_models = tuple(reference_fit_gma(samples, guess)
                                      for samples, guess in self.gma_inputs)


@pytest.fixture(scope="module", params=[3, 7], ids=["testbed3", "testbed7"])
def recorded(request):
    return Recorded(request.param)


def gma_cost(samples, guess, model):
    residual = gma_fit_residuals(samples, guess)(model.params.to_vector())
    return 0.5 * float(residual @ residual)


def mapping_cost(system, samples):
    rows = np.array([scalar_coincidence_residuals(system, s)
                     for s in samples])
    return 0.5 * float(np.sum(rows ** 2))


def sample_voltages(samples):
    return (np.array([s.v1 for s in samples]),
            np.array([s.v2 for s in samples]))


def assert_same_commands(testbed, system, reference, count=20):
    for pose in testbed.evaluation_poses(count):
        report = testbed.tracker.report(pose)
        got, want = point(system, report), point(reference, report)
        np.testing.assert_allclose(got.voltages, want.voltages, rtol=0,
                                   atol=DEFAULT_VOLTAGE_STEP_V)
        assert got.iterations == want.iterations


class TestCalibrationMatchesReference:
    def test_gma_fit_reaches_the_reference_cost(self, recorded):
        for (samples, guess), model, reference in zip(
                recorded.gma_inputs, recorded.models,
                recorded.reference_models):
            want = gma_cost(samples, guess, reference)
            assert gma_cost(samples, guess, model) == pytest.approx(
                want, rel=COST_RTOL)

    def test_gma_fit_predicts_the_reference_board_hits(self, recorded):
        for (samples, _), model, reference in zip(
                recorded.gma_inputs, recorded.models,
                recorded.reference_models):
            assert len(samples) == 266
            v1, v2 = sample_voltages(samples)
            np.testing.assert_allclose(
                board_hits(model.params.to_vector(), v1, v2, BOARD_POINT,
                           BOARD_NORMAL),
                board_hits(reference.params.to_vector(), v1, v2,
                           BOARD_POINT, BOARD_NORMAL),
                rtol=0, atol=BOARD_HIT_TOL_M)

    def test_mapping_fit_reaches_the_reference_cost(self, recorded):
        tx, rx, samples, initial = recorded.mapping_input
        reference = reference_fit_mapping(tx, rx, samples, initial)
        assert mapping_cost(recorded.outcome.system, samples) == \
            pytest.approx(mapping_cost(reference, samples), rel=COST_RTOL)

    def test_pointing_matches_the_reference_system(self, recorded):
        _, _, samples, initial = recorded.mapping_input
        reference = reference_fit_mapping(*recorded.reference_models,
                                          samples, initial)
        assert_same_commands(recorded.testbed, recorded.outcome.system,
                             reference)


class TestRemapMatchesReference:
    @pytest.fixture(scope="class")
    def refit(self):
        testbed = Testbed(seed=7)
        system = testbed.calibrate().system
        testbed.apply_tracker_drift(translation_m=(0.04, -0.02, 0.01),
                                    yaw_rad=np.radians(3.0))
        fresh = testbed.collect_mapping_samples(10)
        seed = np.concatenate([Pose.identity().to_params(),
                               system.rx_mapping.to_params()])
        reference = reference_fit_mapping(
            system.tx_model_vr, system.rx_model_kspace, fresh, seed)
        return testbed, fresh, remap(system, fresh), reference

    def test_reaches_the_reference_cost(self, refit):
        _, fresh, system, reference = refit
        assert mapping_cost(system, fresh) == pytest.approx(
            mapping_cost(reference, fresh), rel=COST_RTOL)

    def test_pointing_matches_the_reference_system(self, refit):
        testbed, _, system, reference = refit
        assert_same_commands(testbed, system, reference)


def linear_problem():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(20, 5))
    b = rng.normal(size=20)
    return a, b


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x, f):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def cost(fun, x):
    residual = fun(x)
    return 0.5 * float(residual @ residual)


class TestSolver:
    def test_linear_least_squares_solution(self):
        a, b = linear_problem()

        def fun(x):
            return a @ x - b

        x = levenberg_marquardt(fun, np.zeros(5), lambda x, f: a)
        want, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert cost(fun, x) == pytest.approx(cost(fun, want), rel=1e-14)
        # ftol stops once the cost is flat to 1e-15 relative, which on a
        # linear problem leaves x within about sqrt(ftol) of the optimum.
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-7)

    def test_rosenbrock_minimum(self):
        x = levenberg_marquardt(rosenbrock, np.array([-1.2, 1.0]),
                                rosenbrock_jacobian)
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-12)
        assert cost(rosenbrock, x) < 1e-24

    def test_forward_jacobian_on_rosenbrock(self):
        jacobian = forward_jacobian(
            lambda xs: np.array([rosenbrock(x) for x in xs]))
        x = np.array([-1.2, 1.0])
        np.testing.assert_allclose(
            jacobian(x, rosenbrock(x)), rosenbrock_jacobian(x, None),
            rtol=1e-6, atol=1e-6)

    def test_forward_steps_follow_the_two_point_rule(self):
        x = np.array([0.0, -0.5, 3.0, -250.0, 1e-9])
        steps = forward_steps(x)
        rule = np.sqrt(np.finfo(float).eps) * np.array(
            [1.0, -1.0, 3.0, -250.0, 1.0])
        np.testing.assert_allclose(steps, rule, rtol=1e-6)
        assert np.array_equal((x + steps) - x, steps)

    def test_never_takes_a_non_finite_step(self):
        # The minimum at x = 5 lies beyond a wall where the residual is
        # NaN; the solver must stop short of the wall.
        def fun(x):
            return np.array([x[0] - 5.0 if x[0] <= 3.0 else np.nan])

        x = levenberg_marquardt(fun, np.zeros(1),
                                lambda x, f: np.ones((1, 1)))
        assert 0.0 < x[0] <= 3.0

    def test_evaluation_cap_returns_the_best_point(self, monkeypatch):
        # Two evaluations per parameter: four for Rosenbrock.
        monkeypatch.setattr(lsq, "MAX_NFEV_PER_PARAM", 2)
        evaluated = []

        def fun(x):
            evaluated.append(x.copy())
            return rosenbrock(x)

        x = levenberg_marquardt(fun, np.array([-1.2, 1.0]),
                                rosenbrock_jacobian)
        assert len(evaluated) == 4
        best = min(evaluated, key=lambda point: cost(rosenbrock, point))
        np.testing.assert_array_equal(x, best)
        assert cost(rosenbrock, x) < cost(rosenbrock, evaluated[0])

    def test_rejects_a_non_finite_initial_residual(self):
        with pytest.raises(ValueError, match="initial point"):
            levenberg_marquardt(lambda x: np.full(2, np.nan), np.zeros(2),
                                lambda x, f: np.eye(2))


class TestFitInputsAreRejected:
    @pytest.fixture(scope="class")
    def aligned(self, calibration):
        return calibration.mapping_samples[:6]

    @pytest.mark.parametrize("field", ["x", "y"])
    def test_fit_gma_rejects_non_finite_coordinates(self, field,
                                                    calibration):
        samples = [BoardSample(0.01 * i, 0.02, 0.1 * i, 0.2)
                   for i in range(6)]
        samples[2] = replace(samples[2], **{field: np.nan})
        with pytest.raises(ValueError, match="finite"):
            fit_gma(samples, calibration.tx_kspace_model.params)

    @pytest.mark.parametrize("field", ["v1", "v2"])
    def test_fit_gma_rejects_non_finite_voltages(self, field, calibration):
        samples = [BoardSample(0.01 * i, 0.02, 0.1 * i, 0.2)
                   for i in range(6)]
        samples[4] = replace(samples[4], **{field: np.inf})
        with pytest.raises(ValueError, match="finite"):
            fit_gma(samples, calibration.tx_kspace_model.params)

    def mapping_args(self, calibration, aligned, initial=None):
        if initial is None:
            initial = np.zeros(12)
        return (calibration.tx_kspace_model, calibration.rx_kspace_model,
                aligned, initial)

    def test_fit_mapping_rejects_non_finite_voltages(self, calibration,
                                                     aligned):
        bad = list(aligned)
        bad[1] = replace(bad[1], v_rx2=np.nan)
        with pytest.raises(ValueError, match="finite"):
            fit_mapping(*self.mapping_args(calibration, bad))

    def test_fit_mapping_rejects_non_finite_poses(self, calibration,
                                                  aligned):
        # A Pose refuses a non-finite position, so hand in a stand-in
        # with the same fields: fit_mapping checks what it stacks.
        bad = list(aligned)
        pose = bad[3].reported_pose
        bad[3] = replace(bad[3], reported_pose=SimpleNamespace(
            position=np.array([np.nan, 0.0, 0.0]),
            orientation=pose.orientation))
        with pytest.raises(ValueError, match="finite"):
            fit_mapping(*self.mapping_args(calibration, bad))

    def test_fit_mapping_rejects_non_finite_initial_parameters(
            self, calibration, aligned):
        initial = np.zeros(12)
        initial[7] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_mapping(*self.mapping_args(calibration, aligned, initial))

