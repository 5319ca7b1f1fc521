"""End-to-end tests of ``python -m repro analyze`` on single files, and
the tree gates.

Runs the CLI in a subprocess (exit codes, JSON schema) against the
per-file U fixtures and asserts the repo-wide invariants: ``src/repro``
analyzes clean with zero waivers, and ``repro/core`` contains zero
suppressions.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import analyze_paths
from repro.devtools.reporters import JSON_SCHEMA_VERSION, to_payload

ROOT = Path(__file__).parent.parent
UNITS = Path(__file__).parent / "fixtures" / "program" / "units"
SRC_REPRO = ROOT / "src" / "repro"


def run_analyze_cli(*args: str) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *args],
        capture_output=True, text=True, env=env, cwd=str(ROOT))


def test_exit_zero_on_clean_file():
    proc = run_analyze_cli(str(UNITS / "repro/core/u001_tn.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_exit_one_on_findings():
    proc = run_analyze_cli(str(UNITS / "repro/core/u001_tp.py"),
                           "--select", "U001")
    assert proc.returncode == 1
    assert "U001" in proc.stdout


def test_exit_two_on_unknown_rule():
    proc = run_analyze_cli(str(UNITS), "--select", "Z9")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_exit_two_on_missing_path():
    proc = run_analyze_cli(str(UNITS / "does_not_exist.py"))
    assert proc.returncode == 2
    assert "no such file" in proc.stderr


def test_exit_two_on_module_name_collision():
    # The layering fixture embeds its own ``repro`` tree: indexed with
    # the real package, one of each same-named pair would be dropped
    # (and the fixture's L002 finding with it).
    layering = Path(__file__).parent / "fixtures" / "program" / "layering"
    proc = run_analyze_cli(str(layering), str(SRC_REPRO), "--select", "L",
                           "--warn-only")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "module repro is defined by both" in proc.stderr
    assert str(layering / "repro" / "__init__.py") in proc.stderr


def test_lint_subcommand_is_gone():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint"], capture_output=True,
        text=True, cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_warn_only_reports_but_exits_zero():
    proc = run_analyze_cli(str(UNITS / "repro/core/u001_tp.py"),
                           "--select", "U001", "--warn-only")
    assert proc.returncode == 0
    assert "U001" in proc.stdout


def test_list_rules_names_every_rule():
    proc = run_analyze_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("U001", "U002"):
        assert rule_id in proc.stdout


def test_json_format_schema_round_trip():
    proc = run_analyze_cli(str(UNITS / "repro/core/u001_tp.py"),
                           "--select", "U001", "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["files_checked"] == 1
    assert payload["counts"].get("U001", 0) >= 1
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "column", "rule", "message"}
    # The CLI payload must match the library's own serialization.
    library = to_payload(analyze_paths(
        [str(UNITS / "repro/core/u001_tp.py")], select=["U001"]))
    assert payload == library


def test_ignore_flag_drops_rule():
    proc = run_analyze_cli(str(UNITS / "repro/core/u001_tp.py"),
                           "--select", "U", "--ignore", "U001")
    assert proc.returncode == 0


def test_waiver_budget_exceeded_fails():
    proc = run_analyze_cli(str(UNITS / "repro/core/noqa_demo.py"),
                           "--max-waivers", "0")
    assert proc.returncode == 1
    assert "exceed the budget" in proc.stderr


def test_waiver_budget_met_passes():
    proc = run_analyze_cli(str(UNITS / "repro/core/noqa_demo.py"),
                           "--max-waivers", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_negative_waiver_budget_is_a_usage_error():
    # A budget of -1 could never be met; argparse rejects it before
    # any file is read.
    proc = run_analyze_cli(str(UNITS / "repro/core/noqa_demo.py"),
                           "--max-waivers", "-1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "--max-waivers" in proc.stderr
    assert proc.stdout == ""


def test_src_repro_within_waiver_budget():
    """CI gate: the real tree carries no waivers at all."""
    proc = run_analyze_cli(str(SRC_REPRO), "--max-waivers", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_github_format_emits_error_annotations():
    proc = run_analyze_cli(str(UNITS / "repro/core/u001_tp.py"),
                           "--select", "U001", "--format", "github")
    assert proc.returncode == 1
    assert "::error file=" in proc.stdout
    assert "title=U001" in proc.stdout


def test_src_repro_tree_lints_clean():
    """The headline gate: zero findings over the real package."""
    result = analyze_paths([str(SRC_REPRO)])
    assert not result.findings, \
        "\n".join(f.render() for f in result.findings)


def test_core_has_zero_suppressions():
    """No ``repro: noqa`` waivers inside repro/core."""
    offenders = []
    for path in sorted((SRC_REPRO / "core").rglob("*.py")):
        if "repro: noqa" in path.read_text():
            offenders.append(str(path))
    assert not offenders, offenders


@pytest.mark.skipif(importlib.util.find_spec("mypy") is None,
                    reason="mypy not installed in this environment")
def test_mypy_passes_on_typed_core():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file",
         str(ROOT / "pyproject.toml")],
        capture_output=True, text=True, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stdout + proc.stderr
