"""Tests for the whole-program analyzer (``python -m repro analyze``).

Covers the project index (extraction, caching, invalidation), the
layering and RNG-provenance families against seeded true-positive
fixture trees, noqa suppression and the waiver budget,
``--select``/``--ignore`` prefix resolution, the ``--profile``
counters, the CLI exit-code contract, and the GitHub annotation
format.  A marker-gated perf smoke test asserts the warm cache
actually pays for itself.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.devtools import analyze_paths, build_index, module_name_for
from repro.devtools.index import load_cache, save_cache
from repro.devtools.model import INDEX_SCHEMA_VERSION

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "program"
SRC_REPRO = ROOT / "src" / "repro"
#: Together these trip L and U: the trees the selection tests slice.
MIXED = (str(FIXTURES / "layering"), str(FIXTURES / "units"))


def run_analyze_cli(*args: str,
                    cwd: Path = ROOT) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *args],
        capture_output=True, text=True, env=env, cwd=str(cwd))


def rules_found(proc: "subprocess.CompletedProcess[str]"):
    payload = json.loads(proc.stdout)
    return sorted(f["rule"] for f in payload["findings"]), payload


# ---------------------------------------------------------------------------
# The repo-wide invariant: src/repro analyzes clean.
# ---------------------------------------------------------------------------

def test_src_repro_analyzes_clean():
    proc = run_analyze_cli(str(SRC_REPRO), "--no-cache")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_root_analyze_default_selection_is_clean():
    # The acceptance bar: the full default selection over src/repro
    # with zero findings and zero waivers.
    proc = run_analyze_cli(str(SRC_REPRO), "--no-cache",
                           "--max-waivers", "0", "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert payload["suppressed"] == 0


# ---------------------------------------------------------------------------
# Rule families against the seeded true-positive trees.
# ---------------------------------------------------------------------------

def test_layering_fixture_trips_every_l_rule():
    proc = run_analyze_cli(str(FIXTURES / "layering"), "--no-cache",
                           "--select", "L", "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rules, _ = rules_found(proc)
    assert rules == ["L001", "L002", "L003"]


def test_layering_messages_name_the_modules():
    proc = run_analyze_cli(str(FIXTURES / "layering"), "--no-cache",
                           "--select", "L")
    assert "repro.geometry" in proc.stdout  # L001 upward import
    assert "repro.core -> repro.link" in proc.stdout  # L002 cycle
    assert "experimental" in proc.stdout  # L003 unassigned


def test_rngflow_fixture_trips_every_t_rule():
    proc = run_analyze_cli(str(FIXTURES / "rngflow"), "--no-cache",
                           "--select", "T", "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rules, _ = rules_found(proc)
    assert rules == ["T001"]


def test_fixture_determinism_module_may_mint():
    proc = run_analyze_cli(str(FIXTURES / "rngflow"), "--no-cache",
                           "--select", "T001", "--format", "json")
    _, payload = rules_found(proc)
    paths = {f["path"] for f in payload["findings"]}
    assert all("determinism" not in path for path in paths)


# ---------------------------------------------------------------------------
# noqa suppression flows through to program rules.
# ---------------------------------------------------------------------------

def test_program_noqa_suppresses(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "__init__.py").write_text("")
    (tree / "rogue.py").write_text(
        "import numpy as np\n\n\n"
        "def minted():\n"
        "    return np.random.default_rng(7)"
        "  # repro: noqa[T001]\n")
    result = analyze_paths([str(tmp_path)], select=["T"],
                           cache_dir=None)
    assert result.findings == []
    assert result.suppressed == 1


def test_max_waivers_budget(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "__init__.py").write_text("")
    (tree / "rogue.py").write_text(
        "import numpy as np\n\n\n"
        "def minted():\n"
        "    return np.random.default_rng(7)"
        "  # repro: noqa[T001]\n")
    # The waiver keeps the tree clean, but it still spends budget.
    proc = run_analyze_cli(str(tmp_path), "--no-cache", "--select",
                           "T", "--max-waivers", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = run_analyze_cli(str(tmp_path), "--no-cache", "--select",
                           "T", "--max-waivers", "0", "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["suppressed"] == 1
    assert "waiver" in proc.stderr


# ---------------------------------------------------------------------------
# Index cache: reuse, invalidation, corruption tolerance.
# ---------------------------------------------------------------------------

def test_cache_round_trip_is_equivalent(tmp_path):
    cache = tmp_path / "cache"
    cold = analyze_paths([str(FIXTURES / "rngflow")], select=["T"],
                         cache_dir=str(cache))
    warm = analyze_paths([str(FIXTURES / "rngflow")], select=["T"],
                         cache_dir=str(cache))
    assert cold.extracted > 0 and cold.from_cache == 0
    assert warm.extracted == 0
    assert warm.from_cache == cold.extracted
    assert warm.findings == cold.findings


def test_cache_invalidates_on_content_change(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(FIXTURES / "rngflow", tree)
    cache = tmp_path / "cache"
    analyze_paths([str(tree)], select=["T"], cache_dir=str(cache))
    target = tree / "repro" / "simulate" / "rig.py"
    target.write_text(target.read_text() + "\n\nEXTRA = 1\n")
    warm = analyze_paths([str(tree)], select=["T"],
                         cache_dir=str(cache))
    assert warm.extracted == 1  # only the edited module re-parsed
    assert warm.from_cache > 0


def test_stale_cache_payloads_are_invalidated(tmp_path):
    # A cache written under an older schema must be discarded
    # wholesale, never mis-read: v2 predates the exception facts, v4
    # carries the retired kernel facts, v5 the retired array and
    # global-write facts, v6 the retired resource facts and lacks
    # the parameter positions U001 reads, and v7 the retired
    # exception-flow and RNG-sink facts.
    cache = tmp_path / "cache"
    cache.mkdir()
    for version in (2, 4, 5, 6, 7):
        stale = {
            "version": version,
            "files": {"x.py": {"sha": "0" * 64, "module": {"bogus": 1}}},
            "results": {"key": "stale", "findings": []},
        }
        (cache / "program-index.json").write_text(json.dumps(stale))
        assert load_cache(str(cache)) == {}, version
    result = analyze_paths([str(FIXTURES / "layering")],
                           select=["L"], cache_dir=str(cache))
    assert result.extracted > 0  # nothing was trusted from the file
    rewritten = json.loads((cache / "program-index.json").read_text())
    assert rewritten["version"] == INDEX_SCHEMA_VERSION == 8
    assert set(rewritten) == {"version", "files", "results"}


def test_save_cache_stamps_current_schema_version(tmp_path):
    save_cache(str(tmp_path), {"files": {}})
    payload = json.loads(
        (tmp_path / "program-index.json").read_text())
    assert payload["version"] == INDEX_SCHEMA_VERSION == 8


def test_corrupt_cache_is_ignored(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "program-index.json").write_text("{not json")
    result = analyze_paths([str(FIXTURES / "rngflow")], select=["T"],
                           cache_dir=str(cache))
    assert result.extracted > 0
    assert len(result.findings) == 1


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------

def test_exit_two_on_unknown_rule():
    proc = run_analyze_cli(str(FIXTURES / "layering"), "--no-cache",
                           "--select", "Z9")
    assert proc.returncode == 2


def test_single_letter_prefix_selects_one_family():
    # "U" is a single-letter prefix over U001-U002 and must not leak
    # into L, which the same trees also trip.
    proc = run_analyze_cli(*MIXED, "--no-cache",
                           "--select", "U", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["U001", "U001", "U001", "U001", "U002"]


def test_selection_is_case_insensitive():
    proc = run_analyze_cli(*MIXED, "--no-cache",
                           "--select", "l,u001", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["L001", "L002", "L003",
                     "U001", "U001", "U001", "U001"]


def test_ignore_prefix_drops_a_family():
    proc = run_analyze_cli(*MIXED, "--no-cache", "--ignore", "l",
                           "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["U001", "U001", "U001", "U001", "U002"]


def test_exact_id_selection_still_works():
    proc = run_analyze_cli(str(FIXTURES / "layering"), "--no-cache",
                           "--select", "L001", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["L001"]


def test_retired_family_prefixes_exit_two():
    # The race (C), shape (S), dtype (Y), hot-path (P), kernel (K),
    # determinism (D), numerics (N), API-annotation (A), unit-flow (X),
    # retry/cleanup (R), crash-safety (W), escape-set (E) and
    # handler-hygiene (B) families are gone, and so are the pool-
    # boundary (T002) and sink-provenance (T003) rules; selecting them
    # is a usage error, not a silently empty run.
    for bogus in ("C", "S", "Y", "P", "K", "C001", "S002", "Y002",
                  "D", "N", "A", "X", "R", "D001", "X001", "R002",
                  "W", "E", "B", "T002", "T003", "W001", "E002",
                  "B003"):
        proc = run_analyze_cli(str(FIXTURES / "layering"), "--no-cache",
                               "--select", bogus)
        assert proc.returncode == 2, f"{bogus}: {proc.stdout}"


def test_warn_only_reports_but_exits_zero():
    proc = run_analyze_cli(str(FIXTURES / "layering"), "--no-cache",
                           "--select", "L", "--warn-only")
    assert proc.returncode == 0
    assert "L001" in proc.stdout


def test_list_rules_covers_all_families():
    proc = run_analyze_cli("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == ["L001", "L002", "L003", "T001", "U001", "U002"]


def test_github_format_emits_annotations():
    proc = run_analyze_cli(str(FIXTURES / "rngflow"), "--no-cache",
                           "--select", "T001", "--format", "github")
    assert proc.returncode == 1
    assert "::error file=" in proc.stdout
    assert "title=T001" in proc.stdout


def test_syntax_error_is_reported_not_fatal(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "__init__.py").write_text("")
    (tree / "broken.py").write_text("def broken(:\n")
    result = analyze_paths([str(tmp_path)], cache_dir=None)
    assert [f.rule_id for f in result.findings] == ["E999"]


# ---------------------------------------------------------------------------
# --profile counters.
# ---------------------------------------------------------------------------

def test_profile_text_reports_families_and_cache(tmp_path):
    cache = tmp_path / "cache"
    args = (str(FIXTURES / "layering"), "--cache-dir", str(cache),
            "--select", "T,L", "--warn-only", "--profile")
    proc = run_analyze_cli(*args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "profile: family T" in proc.stdout
    assert "profile: family L" in proc.stdout
    assert "cache results miss; files 0 cached /" in proc.stdout

    warm = run_analyze_cli(*args)
    assert "cache results hit; files" in warm.stdout
    assert "0 extracted; total" in warm.stdout


def test_profile_json_payload(tmp_path):
    cache = tmp_path / "cache"
    proc = run_analyze_cli(str(FIXTURES / "layering"), "--cache-dir",
                           str(cache), "--select", "T,L", "--warn-only",
                           "--profile", "--format", "json")
    profile = json.loads(proc.stdout)["profile"]
    assert set(profile["families"]) == {"T", "L"}
    assert all(seconds >= 0 for seconds in
               profile["families"].values())
    assert set(profile["cache"]) == {"results", "files_cached",
                                     "files_extracted"}
    assert profile["cache"]["results"] == "miss"
    assert profile["cache"]["files_extracted"] > 0


def test_profile_absent_from_json_without_flag():
    proc = run_analyze_cli(str(FIXTURES / "layering"), "--no-cache",
                           "--select", "L", "--warn-only",
                           "--format", "json")
    assert "profile" not in json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# Index internals.
# ---------------------------------------------------------------------------

def test_module_names_root_at_repro():
    path = FIXTURES / "rngflow" / "repro" / "simulate" / "rig.py"
    assert module_name_for(str(path)) == "repro.simulate.rig"
    init = FIXTURES / "rngflow" / "repro" / "simulate" / "__init__.py"
    assert module_name_for(str(init)) == "repro.simulate"


def test_index_resolves_cross_module_calls():
    index = build_index([str(FIXTURES / "layering")])
    info = index.modules["repro.geometry"]
    calls = {call.func for call in info.calls}
    assert "run" in calls
    runner = next(c for c in info.calls if c.func == "run")
    callee = index.resolve_call("repro.geometry", runner)
    assert callee is not None
    assert callee.qualified == "repro.simulate.run"


def test_index_resolution_follows_reexports():
    index = build_index([str(SRC_REPRO)])
    # repro.simulate.rig imports GalvoHardware via the repro.galvo
    # facade; the index must resolve it to the defining module's class.
    info = index.modules["repro.simulate.rig"]
    call = next(c for c in info.calls if c.func == "GalvoHardware")
    callee = index.resolve_call("repro.simulate.rig", call)
    assert callee is not None
    assert callee.kind == "class"
    assert callee.module.startswith("repro.galvo")


# ---------------------------------------------------------------------------
# Perf smoke: the warm cache must pay for itself.
# ---------------------------------------------------------------------------

@pytest.mark.perf
def test_warm_cache_at_least_5x_faster(tmp_path):
    # The cold run parses every file and runs every family; the warm
    # runs must hit the results tier and skip both.
    cache = tmp_path / "cache"
    started = time.perf_counter()
    cold = analyze_paths([str(SRC_REPRO)], cache_dir=str(cache))
    cold_s = time.perf_counter() - started
    assert cold.extracted > 0

    warm_s = float("inf")
    for _ in range(3):  # best-of-3 to shrug off scheduler noise
        started = time.perf_counter()
        warm = analyze_paths([str(SRC_REPRO)], cache_dir=str(cache))
        warm_s = min(warm_s, time.perf_counter() - started)
        assert warm.extracted == 0
        assert warm.profile["cache"]["results"] == "hit"
    assert warm_s * 5 <= cold_s, (
        f"warm re-run {warm_s:.4f}s vs cold {cold_s:.4f}s: cache "
        "no longer pays for itself")
