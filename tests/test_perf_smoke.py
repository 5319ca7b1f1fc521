"""Marker-gated performance smoke tests (``-m perf`` selects them).

Small enough to ride in tier-1: they assert the vectorized slot model
agrees with the slot-loop oracle on a real (tiny) dataset, that the
Section 4.2 mapping fit makes one batched residual call per residual
and per Jacobian, that a Section 4.1-B
finite-difference Jacobian is one batched trace, that the channel,
``G'`` and the K-space board loop stay on floats, and that a tracking
report and its RX placement check each rotation once (counted calls,
not timed ones).  Speed is measured by the
repository benchmark (``bench/run.py``), not here, so CI timing noise
cannot break the suite.
"""

import copy
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    BoardRig,
    BoardSample,
    gma,
    interior_grid_points,
    inverse,
    kspace,
    mapping,
)
from repro.galvo import GalvoHardware
from repro.geometry import rotation
from repro.motion import generate_batch
from repro.simulate import simulate_batch
from repro.vrh import VrhTracker

from . import oracles
from .oracles import (
    Plane,
    Ray,
    reference_evaluate,
    reference_simulate_trace,
    reference_solve,
    reference_voltages_hitting,
)

pytestmark = pytest.mark.perf


def counter(calls):
    """``counted(name, fn)``: ``fn`` that also tallies into ``calls``."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


class TestVectorizedSmoke:
    def test_vectorized_equals_reference_on_dataset(self):
        batch = generate_batch(viewers=2, videos=2, duration_s=3.0)
        vectorized = simulate_batch(batch)
        for trace, fast in zip(batch.traces(), vectorized.connected):
            slow = reference_simulate_trace(trace)
            np.testing.assert_array_equal(fast, slow)


class TestMappingFitIsBatched:
    def test_one_batched_residual_per_evaluation(self, testbed, calibration,
                                                 monkeypatch):
        calls = Counter()
        counted = counter(calls)
        monkeypatch.setattr(mapping, "coincidence_residuals",
                            counted("scalar", mapping.coincidence_residuals))
        monkeypatch.setattr(mapping, "_residual_rows",
                            counted("batched", mapping._residual_rows))
        solver = mapping.levenberg_marquardt

        def solve(fun, x0, jac):
            # A forward-difference Jacobian is one pass over its stack
            # of perturbed candidates.
            return solver(counted("evaluations", fun), x0,
                          counted("jacobians", jac))

        monkeypatch.setattr(mapping, "levenberg_marquardt", solve)

        tx_map = testbed.vr_from_world.compose(testbed.tx_kspace_to_world)
        initial = np.concatenate([
            tx_map.to_params(),
            testbed.oracle_system().rx_mapping.to_params()]) + 1e-3
        mapping.fit_mapping(calibration.tx_kspace_model,
                            calibration.rx_kspace_model,
                            calibration.mapping_samples, initial)
        assert calls["scalar"] == 0
        assert calls["jacobians"] > 0
        assert calls["batched"] == calls["evaluations"] + calls["jacobians"]


class TestGmaJacobianIsOneTrace:
    def test_one_trace_rows_call_per_jacobian(self, testbed, monkeypatch):
        captured = {}

        def capture(fun, x0, jac, **kwargs):
            captured.update(fun=fun, jac=jac)
            return x0

        monkeypatch.setattr(kspace, "levenberg_marquardt", capture)
        params = testbed.tx_hardware.params
        samples = [BoardSample(0.01 * i, -0.02 * i, 0.3 * i, -0.2 * i)
                   for i in range(-5, 6)]
        kspace.fit_gma(samples, params)
        x = params.to_vector()
        residual = captured["fun"](x)

        calls = Counter()
        monkeypatch.setattr(gma, "trace_rows",
                            counter(calls)("trace_rows", gma.trace_rows))
        jacobian = captured["jac"](x, residual)
        assert calls["trace_rows"] == 1
        assert jacobian.shape == (residual.size, x.size)


class TestChannelStaysOnFloats:
    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()
        counted = counter(calls)
        monkeypatch.setattr(Ray, "__post_init__",
                            counted("Ray", Ray.__post_init__))
        monkeypatch.setattr(np.linalg, "norm",
                            counted("norm", np.linalg.norm))
        monkeypatch.setattr(oracles, "angle_between", counted(
            "angle_between", oracles.angle_between))
        return calls

    def test_evaluate_builds_no_ray_and_takes_no_norm(self, testbed,
                                                      calls):
        testbed.channel.evaluate(testbed.home_pose)
        assert calls == Counter()

    def test_counters_see_the_object_path(self, testbed, calls):
        reference_evaluate(testbed.channel, testbed.home_pose)
        assert calls["Ray"] > 0
        assert calls["norm"] > 0
        assert calls["angle_between"] > 0


class TestNewtonSolversStayOnFloats:
    """``G'`` and the board loop: no lstsq, no Plane, no Ray (not even
    for the miss distance), three hardware commands per board
    iteration."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()
        counted = counter(calls)
        for cls in (Ray, Plane):
            monkeypatch.setattr(cls, "__post_init__",
                                counted(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(np.linalg, "lstsq",
                            counted("lstsq", np.linalg.lstsq))
        monkeypatch.setattr(GalvoHardware, "apply",
                            counted("apply", GalvoHardware.apply))
        return calls

    @pytest.fixture()
    def targets(self, learned_system, testbed):
        tx = learned_system.tx_model_vr
        rx = learned_system.rx_model_vr(testbed.home_pose)
        return [(tx, rx.beam(0.0, 0.0)[0]),
                (rx, tx.beam(0.0, 0.0)[0]),
                (tx, rx.beam(1.0, -2.0)[0])]

    @pytest.fixture()
    def rig(self, testbed):
        return BoardRig(copy.deepcopy(testbed.tx_hardware),
                        rng=np.random.default_rng(0))

    def test_solve(self, targets, calls):
        for model, target in targets:
            inverse.solve(model, target)
        assert calls["lstsq"] == 0
        assert calls["Plane"] == 0
        assert calls["Ray"] == 0

    def test_voltages_hitting(self, rig, calls):
        for point in interior_grid_points()[::40]:
            before = calls["apply"]
            rig.voltages_hitting(point)
            # Three commands per non-final iteration, one for the last.
            assert (calls["apply"] - before) % 3 == 1
        assert calls["lstsq"] == 0
        assert calls["Plane"] == 0
        assert calls["Ray"] == 0

    def test_counters_see_the_object_path(self, targets, rig, calls):
        model, target = targets[0]
        reference_solve(model, target)
        reference_voltages_hitting(rig, interior_grid_points()[0])
        assert calls["lstsq"] > 0
        assert calls["Plane"] > 0
        assert calls["Ray"] > 1


class TestOneRotationCheckPerPlacement:
    """Each per-report path builds every placement once as a ``Pose``:
    no conversion between placement types re-checks a rotation."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()
        check = rotation.is_rotation_matrix
        counted = counter(calls)("rotation", check)
        # Every repro module that bound the check, wherever it is used.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "is_rotation_matrix", None)
                    is check):
                monkeypatch.setattr(module, "is_rotation_matrix", counted)
        return calls

    def test_tracker_report(self, testbed, calls):
        tracker = VrhTracker(testbed.vr_from_world, testbed.x_offset,
                             rng=np.random.default_rng(0))
        tracker.report(testbed.home_pose)
        # V after W, then X, then the noisy report itself.
        assert calls["rotation"] == 3

    def test_rx_model_vr(self, learned_system, testbed, calls):
        learned_system.rx_model_vr(testbed.home_pose)
        # The report after the RX mapping; the placed model is floats.
        assert calls["rotation"] == 1
