"""Tests for the array-semantics analyzer (S/Y/P rule families).

Covers the seeded true-positive/true-negative fixture trees for shape
contracts, dtype stability and hot-path discipline; ``--select``/
``--ignore`` prefix resolution over the grown rule namespace; the
arrays cache tier (round trip, stale-key rejection, schema
invalidation); and the ``--profile`` counters.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.devtools.program import analyze_paths, build_index
from repro.devtools.program.arrays import (
    ARRAYS_SCHEMA_VERSION,
    HOT_MODULES,
    array_table,
    attach_cached_array_table,
    broadcast_conflict,
)
from repro.devtools.program.index import load_cache, save_cache
from repro.devtools.program.model import INDEX_SCHEMA_VERSION

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "program"
SRC_REPRO = ROOT / "src" / "repro"
ARRAYS = FIXTURES / "arrays"


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
# Rule families against the seeded fixture trees (TP and TN).
# ---------------------------------------------------------------------------

def test_arrays_fixture_trips_every_syp_rule():
    proc = run_analyze_cli(str(ARRAYS), "--no-cache",
                           "--select", "S,Y,P", "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rules, _ = rules_found(proc)
    assert rules == ["P001", "P001", "P002", "P002",
                     "S001", "S002", "S003",
                     "Y001", "Y002", "Y002", "Y003"]


def test_s_messages_name_the_shapes_and_boundary():
    proc = run_analyze_cli(str(ARRAYS), "--no-cache", "--select", "S")
    assert proc.returncode == 1
    assert "blend" in proc.stdout and "4, 3" in proc.stdout  # S001
    assert "positions" in proc.stdout  # S002
    assert "sample-major" in proc.stdout
    assert "doubled_m" in proc.stdout  # S003


def test_cold_y_p_habits_are_exempt_off_the_hot_path():
    # plumbing.py allocates without dtype= inside a loop; neither Y002
    # nor P001 may fire because the module is not hot.
    proc = run_analyze_cli(str(ARRAYS), "--no-cache",
                           "--select", "Y,P", "--format", "json")
    payload = json.loads(proc.stdout)
    assert not any(f["path"].endswith("plumbing.py")
                   for f in payload["findings"])


# ---------------------------------------------------------------------------
# --select / --ignore prefix resolution over the grown namespace.
# ---------------------------------------------------------------------------

def test_single_letter_s_selects_only_shape_rules():
    # "S" is a single-letter prefix over S001-S003 and must not leak
    # into any other family.
    proc = run_analyze_cli(str(ARRAYS), "--no-cache",
                           "--select", "S", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["S001", "S002", "S003"]


def test_selection_is_case_insensitive_over_new_families():
    proc = run_analyze_cli(str(ARRAYS), "--no-cache",
                           "--select", "s,y", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["S001", "S002", "S003",
                     "Y001", "Y002", "Y002", "Y003"]


def test_ignore_prefix_drops_a_new_family():
    proc = run_analyze_cli(str(ARRAYS), "--no-cache",
                           "--select", "S,Y,P", "--ignore", "Y",
                           "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["P001", "P001", "P002", "P002",
                     "S001", "S002", "S003"]


def test_exact_id_selection_still_works():
    proc = run_analyze_cli(str(ARRAYS), "--no-cache",
                           "--select", "Y002", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["Y002", "Y002"]


def test_unknown_prefix_in_grown_namespace_exits_two():
    for bogus in ("S9", "K9", "Q"):
        proc = run_analyze_cli(str(ARRAYS), "--no-cache",
                               "--select", bogus)
        assert proc.returncode == 2, f"{bogus}: {proc.stdout}"


# ---------------------------------------------------------------------------
# The arrays cache tier.
# ---------------------------------------------------------------------------

def test_array_table_round_trips_through_cache(tmp_path):
    cache = tmp_path / "cache"
    cold = analyze_paths([str(ARRAYS)], select=["S", "Y", "P"],
                         cache_dir=str(cache))
    payload = json.loads((cache / "program-index.json").read_text())
    assert payload.get("arrays"), "array summaries not persisted"

    # A fresh index adopts the cached table instead of re-inferring.
    index = build_index([str(ARRAYS)], cache_dir=None)
    assert attach_cached_array_table(index, payload["arrays"])
    assert array_table(index).from_cache

    # And the warm analyze run reproduces the cold findings exactly.
    warm = analyze_paths([str(ARRAYS)], select=["S", "Y", "P"],
                         cache_dir=str(cache))
    assert warm.extracted == 0
    assert warm.findings == cold.findings


def test_array_table_cache_rejects_stale_key(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ARRAYS, tree)
    cache = tmp_path / "cache"
    analyze_paths([str(tree)], select=["S"], cache_dir=str(cache))
    payload = json.loads((cache / "program-index.json").read_text())
    target = tree / "repro" / "plumbing.py"
    target.write_text(target.read_text() + "\nEXTRA = 1\n")
    index = build_index([str(tree)], cache_dir=None)
    assert not attach_cached_array_table(index, payload["arrays"])


def test_v2_cache_payload_is_invalidated_by_v3_loader(tmp_path):
    # A stale cache (here v2, pre array-semantics) must be discarded
    # wholesale by the current loader, never mis-read: the file
    # entries lack the array-op fields and deserializing them would
    # crash or silently drop facts.
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = {
        "version": 2,
        "files": {"x.py": {"sha": "0" * 64, "module": {"bogus": 1}}},
        "results": {"key": "stale", "findings": []},
    }
    (cache / "program-index.json").write_text(json.dumps(stale))
    assert load_cache(str(cache)) == {}
    # v4 entries still carry the decorator and *args/**kwargs facts
    # of the retired kernel rules; they are discarded as well.
    (cache / "program-index.json").write_text(
        json.dumps(dict(stale, version=4)))
    assert load_cache(str(cache)) == {}
    result = analyze_paths([str(ARRAYS)], select=["S"],
                           cache_dir=str(cache))
    assert result.extracted > 0  # nothing was trusted from the v2 file
    rewritten = json.loads((cache / "program-index.json").read_text())
    assert rewritten["version"] == INDEX_SCHEMA_VERSION == 5


def test_save_cache_stamps_current_schema_version(tmp_path):
    save_cache(str(tmp_path), {"files": {}})
    payload = json.loads(
        (tmp_path / "program-index.json").read_text())
    assert payload["version"] == INDEX_SCHEMA_VERSION == 5
    assert ARRAYS_SCHEMA_VERSION == 1


# ---------------------------------------------------------------------------
# --profile counters.
# ---------------------------------------------------------------------------

def test_profile_text_reports_families_and_cache(tmp_path):
    cache = tmp_path / "cache"
    proc = run_analyze_cli(str(ARRAYS), "--cache-dir", str(cache),
                           "--select", "S,Y,P", "--warn-only",
                           "--profile")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "profile: family S" in proc.stdout
    assert "profile: family Y" in proc.stdout
    assert "profile: family P" in proc.stdout
    assert ("results miss, effects miss, arrays miss, "
            "exceptions miss") in proc.stdout

    warm = run_analyze_cli(str(ARRAYS), "--cache-dir", str(cache),
                           "--select", "S,Y,P", "--warn-only",
                           "--profile")
    assert ("results hit, effects hit, arrays hit, "
            "exceptions hit") in warm.stdout


def test_profile_json_payload(tmp_path):
    cache = tmp_path / "cache"
    proc = run_analyze_cli(str(ARRAYS), "--cache-dir", str(cache),
                           "--select", "S,Y", "--warn-only",
                           "--profile", "--format", "json")
    payload = json.loads(proc.stdout)
    profile = payload["profile"]
    assert set(profile["families"]) == {"S", "Y"}
    assert all(seconds >= 0 for seconds in
               profile["families"].values())
    assert profile["cache"]["results"] == "miss"
    assert profile["cache"]["arrays"] == "miss"
    assert profile["cache"]["files_extracted"] > 0


def test_profile_absent_from_json_without_flag():
    proc = run_analyze_cli(str(ARRAYS), "--no-cache", "--select", "S",
                           "--warn-only", "--format", "json")
    assert "profile" not in json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# Hot-module scope.
# ---------------------------------------------------------------------------

def test_batch_engine_modules_are_always_hot():
    assert "repro.motion.batch" in HOT_MODULES
    assert "repro.simulate.batch" in HOT_MODULES
    assert "repro.plumbing" not in HOT_MODULES


# ---------------------------------------------------------------------------
# Lattice helpers.
# ---------------------------------------------------------------------------

def test_broadcast_conflict_right_aligns():
    assert broadcast_conflict(("4", "3"), ("5",))
    assert not broadcast_conflict(("4", "3"), ("3",))
    assert not broadcast_conflict(("4", "3"), ("1",))
    assert not broadcast_conflict(("t", "3"), ("3",))  # symbolic dim
    assert not broadcast_conflict(("4", "1"), ("4", "7"))


def test_root_analyze_default_selection_is_clean():
    # The acceptance bar: the full default selection (all eleven
    # families) over src/repro with zero findings and zero waivers.
    proc = run_analyze_cli(str(SRC_REPRO), "--no-cache",
                           "--max-waivers", "0", "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert payload["suppressed"] == 0
