"""Site self-check and tracing guardrail of the benchmark.

The workloads' functions run here directly, at tiny sizes:

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "calibrate": dict(min_ops=1, mapping_samples=6, trials=2),
    "session": dict(handheld_s=0.5, handheld_runs=1,
                    linear_speeds_m_s=(0.55,), angular_speeds_deg_s=(28.0,)),
    "pointing": dict(cold=2),
    "availability": dict(viewers=2, videos=2, duration_s=2.0, min_ops=2),
}


def tiny(name):
    return workloads.WORKLOADS[name](**TINY[name])


@pytest.fixture(scope="module", params=spans.WORKLOADS)
def traced(request, tmp_path_factory):
    name = request.param
    path = tmp_path_factory.mktemp(name) / "trace.json"
    return name, workloads.run_traced(tiny(name), path), path


def test_tracing_leaves_simulated_outputs_unchanged(traced):
    name, result, _ = traced
    assert len(result["traced_outputs"]) == tiny(name).min_ops
    assert result["traced_outputs"] == result["plain_outputs"]
    assert "tracing changed the simulated outputs" not in result["problems"]


def test_every_site_resolves_and_is_hit_where_the_table_says(traced):
    name, result, _ = traced
    assert result["missing"] == []
    assert result["metrics"]["trace.sites_missing"] == 0
    for entry in spans.LAYERS:
        calls = result["layers"][entry.key]["calls"]
        if name in entry.works_in:
            assert calls > 0, f"{entry.key} idle in {name}"
        if name in entry.idle_in:
            assert calls == 0, f"{entry.key} busy in {name}"


def test_trace_file_is_chrome_json_whose_parents_exist(traced):
    name, result, path = traced
    events = json.loads(path.read_text())["traceEvents"]
    spans_seen = {event["args"]["span"] for event in events}
    assert events and all(event["ph"] == "X" for event in events)
    assert all(event["args"]["parent"] in spans_seen
               for event in events if event["args"]["parent"] is not None)
    assert {event["name"] for event in events
            if event["args"]["parent"] is None} \
        <= {f"bench.{name}.{kind}" for kind in
            ("seed", "linear", "angular", "handheld", "warm", "cold",
             "pass")}


def test_traced_run_reports_every_per_layer_metric(traced):
    _, result, _ = traced
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    assert spans.metric_units() == declared


def test_untraced_run_reports_every_end_to_end_metric():
    result = workloads.run_untraced(tiny("availability"), 0.0, 0.5)
    declared = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == declared - {"peak_rss_mb"}
    assert all(value > 0 for value in result["metrics"].values())
    assert result["problems"] == []


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(spans.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.E2E_UNITS


def test_unresolvable_sites_are_reported_missing(monkeypatch):
    ghost = spans.Entry("ghost", "gone",
                        (("repro.core.pointing", "no_such_callable"),
                         ("repro.no_such_module", "point")),
                        ("calls",), (), ())
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (ghost,))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        pass
    assert tracer.missing == ["repro.core.pointing:no_such_callable",
                              "repro.no_such_module:point"]
    summary = tracer.summary()
    assert "ghost.gone" not in summary
    assert "core.pointing.point" in summary


def test_canonical_seed_derives_the_canonical_inputs():
    assert workloads.derive_seed(3, workloads.DEFAULT_SEED) == 3
    assert workloads.derive_seed(3, 2023) != workloads.derive_seed(4, 2023)
    assert 0 <= workloads.derive_seed(3, 0) < 2 ** 32
    assert workloads.Availability().canonical
    assert not workloads.Availability(seed=1).canonical


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "availability"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
