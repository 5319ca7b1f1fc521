"""Tests for the whole-program analyzer (``python -m repro analyze``).

Covers the layering and RNG-provenance families against seeded
true-positive fixture trees, noqa suppression and the waiver budget,
``--select``/``--ignore`` prefix resolution, the CLI exit-code
contract, the GitHub annotation format, module naming, and the
stateless-run contract: an analysis writes nothing to disk.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.devtools import analyze_paths, module_name_for

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
    proc = run_analyze_cli(str(SRC_REPRO))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_root_analyze_default_selection_is_clean():
    # The acceptance bar: the full default selection over src/repro
    # with zero findings and zero waivers.
    proc = run_analyze_cli(str(SRC_REPRO),
                           "--max-waivers", "0", "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert payload["suppressed"] == 0


# ---------------------------------------------------------------------------
# Rule families against the seeded true-positive trees.
# ---------------------------------------------------------------------------

def test_layering_fixture_trips_every_l_rule():
    proc = run_analyze_cli(str(FIXTURES / "layering"),
                           "--select", "L", "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rules, _ = rules_found(proc)
    assert rules == ["L001", "L002", "L003"]


def test_layering_messages_name_the_modules():
    proc = run_analyze_cli(str(FIXTURES / "layering"),
                           "--select", "L")
    assert "repro.geometry" in proc.stdout  # L001 upward import
    assert "repro.core -> repro.link" in proc.stdout  # L002 cycle
    assert "experimental" in proc.stdout  # L003 unassigned


def test_rngflow_fixture_trips_every_t_rule():
    proc = run_analyze_cli(str(FIXTURES / "rngflow"),
                           "--select", "T", "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rules, _ = rules_found(proc)
    assert rules == ["T001"]
    result = analyze_paths([str(FIXTURES / "rngflow")], select=["T"])
    assert [f.rule_id for f in result.findings] == ["T001"]


def test_fixture_determinism_module_may_mint():
    proc = run_analyze_cli(str(FIXTURES / "rngflow"),
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
    result = analyze_paths([str(tmp_path)], select=["T"])
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
    proc = run_analyze_cli(str(tmp_path), "--select", "T",
                           "--max-waivers", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = run_analyze_cli(str(tmp_path), "--select", "T",
                           "--max-waivers", "0", "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["suppressed"] == 1
    assert "waiver" in proc.stderr


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------

def test_exit_two_on_unknown_rule():
    proc = run_analyze_cli(str(FIXTURES / "layering"),
                           "--select", "Z9")
    assert proc.returncode == 2


def test_single_letter_prefix_selects_one_family():
    # "U" is a single-letter prefix over U001-U002 and must not leak
    # into L, which the same trees also trip.
    proc = run_analyze_cli(*MIXED,
                           "--select", "U", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["U001", "U001", "U001", "U001", "U002"]


def test_selection_is_case_insensitive():
    proc = run_analyze_cli(*MIXED,
                           "--select", "l,u001", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["L001", "L002", "L003",
                     "U001", "U001", "U001", "U001"]


def test_ignore_prefix_drops_a_family():
    proc = run_analyze_cli(*MIXED, "--ignore", "l",
                           "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["U001", "U001", "U001", "U001", "U002"]


def test_exact_id_selection_still_works():
    proc = run_analyze_cli(str(FIXTURES / "layering"),
                           "--select", "L001", "--format", "json")
    rules, _ = rules_found(proc)
    assert rules == ["L001"]


def test_retired_family_prefixes_exit_two():
    # The race (C), shape (S), dtype (Y), hot-path (P), kernel (K),
    # determinism (D), numerics (N), API-annotation (A), unit-flow (X),
    # retry/cleanup (R), crash-safety (W), escape-set (E) and
    # handler-hygiene (B) families are gone, and so are the pool-
    # boundary (T002) and sink-provenance (T003) rules; selecting them
    # is a usage error, not a silently empty run.  So is a selection
    # that names no rule at all ("", ",").
    for bogus in ("C", "S", "Y", "P", "K", "C001", "S002", "Y002",
                  "D", "N", "A", "X", "R", "D001", "X001", "R002",
                  "W", "E", "B", "T002", "T003", "W001", "E002",
                  "B003", "", ","):
        proc = run_analyze_cli(str(FIXTURES / "layering"),
                               "--select", bogus)
        assert proc.returncode == 2, f"{bogus}: {proc.stdout}"


def test_retired_options_exit_two():
    for option in ("--no-cache", "--profile", "--cache-dir=x"):
        proc = run_analyze_cli(str(FIXTURES / "units"), option)
        assert proc.returncode == 2, f"{option}: {proc.stdout}"
        assert "unrecognized arguments" in proc.stderr


def test_analyze_writes_nothing(tmp_path):
    # One stateless pass: no cache, no results file, nothing left in
    # the working directory.
    proc = run_analyze_cli(cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_warn_only_reports_but_exits_zero():
    proc = run_analyze_cli(str(FIXTURES / "layering"),
                           "--select", "L", "--warn-only")
    assert proc.returncode == 0
    assert "L001" in proc.stdout


def test_list_rules_covers_all_families():
    proc = run_analyze_cli("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == ["L001", "L002", "L003", "T001", "U001", "U002"]


def test_github_format_emits_annotations():
    proc = run_analyze_cli(str(FIXTURES / "rngflow"),
                           "--select", "T001", "--format", "github")
    assert proc.returncode == 1
    assert "::error file=" in proc.stdout
    assert "title=T001" in proc.stdout


def test_syntax_error_is_reported_not_fatal(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "__init__.py").write_text("")
    (tree / "broken.py").write_text("def broken(:\n")
    result = analyze_paths([str(tmp_path)])
    assert [f.rule_id for f in result.findings] == ["E999"]


# ---------------------------------------------------------------------------
# Index internals.
# ---------------------------------------------------------------------------

def test_module_names_root_at_repro():
    path = FIXTURES / "rngflow" / "repro" / "simulate" / "rig.py"
    assert module_name_for(str(path)) == "repro.simulate.rig"
    init = FIXTURES / "rngflow" / "repro" / "simulate" / "__init__.py"
    assert module_name_for(str(init)) == "repro.simulate"
