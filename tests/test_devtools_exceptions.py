"""Tests for the exception-flow analyzer (E/B rule families).

Covers the interprocedural escape-set inference (seeds, call-graph
propagation, per-call-site handler subtraction, the type lattice);
the seeded true-positive/true-negative fixture tree with finding
counts pinned exactly; ``--select``/``--ignore`` over the grown
namespace; and stale-schema cache invalidation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.devtools import analyze_paths, build_index
from repro.devtools.exceptions import exception_table, type_lattice
from repro.devtools.index import load_cache
from repro.devtools.model import INDEX_SCHEMA_VERSION

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "program"
SRC_REPRO = ROOT / "src" / "repro"
EXC = FIXTURES / "exceptions"


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
# The repo-wide invariant: src/repro has a clean error contract.
# ---------------------------------------------------------------------------

def test_src_repro_has_zero_ebr_findings_and_zero_waivers():
    proc = run_analyze_cli(str(SRC_REPRO), "--no-cache",
                           "--select", "E,B", "--max-waivers", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


# ---------------------------------------------------------------------------
# Rule families against the seeded fixture tree (TP and TN twins).
# ---------------------------------------------------------------------------

def test_exceptions_fixture_counts_are_pinned_exactly():
    proc = run_analyze_cli(str(EXC), "--no-cache",
                           "--select", "E,B", "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rules, _ = rules_found(proc)
    # One finding per rule — every safe twin (translated, logged,
    # narrowest-first) must pass.
    assert rules == ["B001", "B002", "B003", "E001", "E002", "E003"]


def test_e_messages_name_worker_subcommand_and_layer_fn():
    proc = run_analyze_cli(str(EXC), "--no-cache", "--select", "E")
    assert proc.returncode == 1
    assert "fatal_worker" in proc.stdout  # E001 names the worker
    assert "safe_worker" not in proc.stdout
    assert "_cmd_report" in proc.stdout  # E002 names the subcommand
    assert "_cmd_run" not in proc.stdout
    assert "repro.errors.StoreError" in proc.stdout  # qualified type
    assert "align_beam" in proc.stdout  # E003 names the function
    assert "focus_beam" not in proc.stdout


def test_b_twins_logged_translated_and_ordered_pass():
    proc = run_analyze_cli(str(EXC), "--no-cache", "--select", "B")
    assert proc.returncode == 1
    assert "sweep_quietly" in proc.stdout  # B001
    assert "sweep_recorded" not in proc.stdout  # logged twin
    assert "sweep_translated" not in proc.stdout  # translated twin
    assert "guarded_parse" in proc.stdout  # B002 dead catch
    assert "guarded_read" not in proc.stdout
    assert "classify_failure'" in proc.stdout  # B003 shadowed
    assert "classify_failure_ordered" not in proc.stdout


def test_private_layer_helpers_are_exempt_from_e003():
    proc = run_analyze_cli(str(EXC), "--no-cache",
                           "--select", "E003", "--format", "json")
    _, payload = rules_found(proc)
    assert all("_nudge" not in f["message"]
               for f in payload["findings"])


# ---------------------------------------------------------------------------
# --select / --ignore over the grown namespace.
# ---------------------------------------------------------------------------

def test_exact_id_selection_works_for_new_families():
    proc = run_analyze_cli(str(EXC), "--no-cache",
                           "--select", "E003", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["E003"]


def test_ignore_prefix_drops_a_new_family():
    proc = run_analyze_cli(str(EXC), "--no-cache",
                           "--select", "E,B", "--ignore", "B",
                           "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["E001", "E002", "E003"]


def test_unknown_prefix_in_grown_namespace_exits_two():
    for bogus in ("E9", "B9", "R9"):
        proc = run_analyze_cli(str(EXC), "--no-cache",
                               "--select", bogus)
        assert proc.returncode == 2, f"{bogus}: {proc.stdout}"


# ---------------------------------------------------------------------------
# The escape-set inference itself.
# ---------------------------------------------------------------------------

def test_seeds_raises_and_sys_exit():
    index = build_index([str(EXC)])
    table = exception_table(index)
    assert table.escapes("repro.store", "flaky_load") == \
        {"StoreError", "OSError"}
    assert table.escapes("repro.workers", "fatal_worker") == \
        {"SystemExit"}
    assert table.escapes("repro.signals", "bail_out") == {"SystemExit"}


def test_handler_subtraction_is_subtype_aware():
    index = build_index([str(EXC)])
    table = exception_table(index)
    # The broad except swallows everything read_group can raise.
    assert table.escapes("repro.store", "sweep_quietly") == set()
    # except RuntimeError catches StoreError (a subclass); nothing
    # survives classify_failure.
    assert table.escapes("repro.store", "classify_failure") == set()
    # The retry loop catches only OSError; StoreError still escapes.
    assert table.escapes("repro.store", "retry_until_loaded") == \
        {"StoreError"}


def test_translate_handlers_reseed_the_target_type():
    index = build_index([str(EXC)])
    table = exception_table(index)
    # The incoming StoreError is absorbed by the broad handler, whose
    # body raises StoreError from exc — recorded as its own fact.
    assert table.escapes("repro.store", "sweep_translated") == \
        {"StoreError"}


def test_escapes_propagate_through_the_call_graph():
    index = build_index([str(EXC)])
    table = exception_table(index)
    # _dispatch unions its subcommands' escapes; main() subtracts its
    # ladder (SweepConfigError, SweepError) leaving only StoreError.
    assert table.escapes("repro.cli", "_dispatch") == \
        {"SweepConfigError", "StoreError"}
    assert table.escapes("repro.cli", "main") == {"StoreError"}


def test_lattice_merges_builtin_and_project_hierarchies():
    index = build_index([str(EXC)])
    lattice = type_lattice(index)
    assert lattice.is_subtype("SweepConfigError", "SweepError")
    assert lattice.is_subtype("SweepConfigError", "RuntimeError")
    assert lattice.is_subtype("BrokenPipeError", "OSError")
    assert not lattice.is_subtype("ValueError", "OSError")
    assert lattice.is_taxonomy("StoreError")
    assert not lattice.is_taxonomy("ValueError")
    assert lattice.qualified("StoreError") == "repro.errors.StoreError"
    # SystemExit is a BaseException but not an Exception — the E001
    # distinction.
    assert lattice.is_subtype("SystemExit", "BaseException")
    assert not lattice.is_subtype("SystemExit", "Exception")


# ---------------------------------------------------------------------------
# Stale cache schemas.
# ---------------------------------------------------------------------------

def test_v3_cache_payload_is_invalidated_by_v4_loader(tmp_path):
    # A v3 cache (pre exception-flow) must be discarded wholesale by
    # the current loader, never mis-read: its file entries lack the
    # try/raise/resource facts and deserializing them would crash or
    # silently drop escape sets.
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = {
        "version": 3,
        "files": {"x.py": {"sha": "0" * 64, "module": {"bogus": 1}}},
        "results": {"key": "stale", "findings": []},
        "effects": {"key": "stale", "table": {}},
        "arrays": {"key": "stale", "table": {}},
    }
    (cache / "program-index.json").write_text(json.dumps(stale))
    assert load_cache(str(cache)) == {}
    result = analyze_paths([str(EXC)], select=["E"],
                           cache_dir=str(cache))
    assert result.extracted > 0  # nothing was trusted from the v3 file
    rewritten = json.loads((cache / "program-index.json").read_text())
    assert rewritten["version"] == INDEX_SCHEMA_VERSION == 7
