"""Marker-gated performance smoke tests (``-m perf`` selects them).

Small enough to ride in tier-1: they assert the vectorized slot model
agrees with the reference loop on a real (tiny) dataset, that the
``python -m repro bench`` artifact round-trips through ``json.load``,
and that the Section 4.2 mapping fit stays batched (counted calls, not
timed ones).  Absolute speed assertions live in ``python -m repro
bench`` itself, not here, so CI timing noise cannot break the suite.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.cli import main
from repro.core import mapping
from repro.motion import generate_dataset
from repro.simulate import simulate_dataset
from repro.simulate.timeslot import _simulate_trace_reference

pytestmark = pytest.mark.perf


class TestVectorizedSmoke:
    def test_vectorized_equals_reference_on_dataset(self):
        traces = generate_dataset(viewers=2, videos=2, duration_s=3.0)
        vectorized = simulate_dataset(traces)
        for trace, fast in zip(traces, vectorized):
            slow = _simulate_trace_reference(trace)
            np.testing.assert_array_equal(fast.connected,
                                          slow.connected)


class TestBenchArtifact:
    @pytest.fixture(scope="class")
    def bench_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / \
            "BENCH_trace_pipeline.json"
        code = main(["bench", "--viewers", "1", "--videos", "2",
                     "--duration", "2.0", "--ref-traces", "1",
                     "--output", str(path)])
        assert code == 0
        return path

    def test_round_trips_through_json_load(self, bench_path):
        with open(bench_path) as handle:
            payload = json.load(handle)
        assert payload == json.loads(json.dumps(payload))

    def test_reports_required_fields(self, bench_path):
        with open(bench_path) as handle:
            payload = json.load(handle)
        for key in ("wall_s", "traces_per_s", "slots_per_s",
                    "speedup_vs_reference", "traces", "slots",
                    "workers"):
            assert key in payload
        assert payload["traces"] == 2
        assert payload["slots"] == 2 * 200 * 10
        assert payload["wall_s"] > 0
        assert payload["speedup_vs_reference"] > 1.0


class TestMappingFitIsBatched:
    def test_one_batched_residual_per_evaluation(self, testbed, calibration,
                                                 monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

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
