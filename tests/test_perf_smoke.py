"""Marker-gated performance smoke tests (``-m perf`` selects them).

Small enough to ride in tier-1: they assert the vectorized slot model
agrees with the slot-loop oracle on a real (tiny) dataset, that the
Section 4.2 mapping fit stays batched, and that the channel stays on
floats (counted calls, not timed ones).  Speed is measured by the
repository benchmark (``bench/run.py``), not here, so CI timing noise
cannot break the suite.
"""

from collections import Counter

import numpy as np
import pytest

from repro import geometry
from repro.core import mapping
from repro.geometry import Ray, vec
from repro.motion import generate_dataset
from repro.simulate import simulate_dataset

from .oracles import reference_evaluate, reference_simulate_trace

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
        traces = generate_dataset(viewers=2, videos=2, duration_s=3.0)
        vectorized = simulate_dataset(traces)
        for trace, fast in zip(traces, vectorized):
            slow = reference_simulate_trace(trace)
            np.testing.assert_array_equal(fast.connected,
                                          slow.connected)


class TestMappingFitIsBatched:
    def test_one_batched_residual_per_evaluation(self, testbed, calibration,
                                                 monkeypatch):
        calls = Counter()
        counted = counter(calls)
        monkeypatch.setattr(mapping, "coincidence_residuals",
                            counted("scalar", mapping.coincidence_residuals))
        monkeypatch.setattr(mapping, "_residual_rows",
                            counted("batched", mapping._residual_rows))
        least_squares = mapping.least_squares
        monkeypatch.setattr(
            mapping, "least_squares",
            lambda fun, x0, **kwargs: least_squares(
                counted("evaluations", fun), x0, **kwargs))

        tx_map = testbed.vr_from_world.compose(testbed.tx_kspace_to_world)
        initial = np.concatenate([
            tx_map.to_params(),
            testbed.oracle_system().rx_mapping.to_params()]) + 1e-3
        mapping.fit_mapping(calibration.tx_kspace_model,
                            calibration.rx_kspace_model,
                            calibration.mapping_samples, initial)
        assert calls["scalar"] == 0
        assert 0 < calls["batched"] <= calls["evaluations"]


class TestChannelStaysOnFloats:
    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()
        counted = counter(calls)
        monkeypatch.setattr(Ray, "__post_init__",
                            counted("Ray", Ray.__post_init__))
        monkeypatch.setattr(np.linalg, "norm",
                            counted("norm", np.linalg.norm))
        for module in (geometry, vec):
            monkeypatch.setattr(module, "angle_between", counted(
                "angle_between", vec.angle_between))
        return calls

    def test_evaluate_builds_no_ray_and_takes_no_norm(self, testbed,
                                                      calls):
        testbed.channel.evaluate(testbed.home_pose)
        assert calls == Counter()

    def test_counters_see_the_object_path(self, testbed, calls):
        reference_evaluate(testbed.channel, testbed.home_pose)
        assert calls["Ray"] > 0
        assert calls["norm"] > 0
