"""Fixture-backed tests for the per-file unit rules and rule plumbing.

U001 and U002 each have a true-positive fixture (must fire) and a
true-negative fixture (must stay silent) under
``tests/fixtures/program/units/``.  The fixture tree deliberately
contains a ``repro/`` directory so the path-scoped halves (U001's
signature check, U002's optics/link scope) see the files as package
members.  Every other family fires on one of the whole-program fixture
trees, which is what the registry-coverage test checks.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools import (
    all_rules,
    analyze_paths,
    resolve_selection,
)
from repro.devtools.extract import package_parts, parse_noqa

PROGRAM = Path(__file__).parent / "fixtures" / "program"
UNITS = PROGRAM / "units"

RULE_FIXTURES = [
    ("U001", UNITS / "repro/core/u001_tp.py",
     UNITS / "repro/core/u001_tn.py"),
    ("U002", UNITS / "repro/optics/u002_tp.py",
     UNITS / "repro/optics/u002_tn.py"),
]

#: The whole-program trees, each tripping its family's every rule.
FAMILY_TREES = ("layering", "rngflow")


def analyze(path: Path, select=None):
    return analyze_paths([str(path)], select=select, cache_dir=None)


@pytest.mark.parametrize("rule_id,tp,tn", RULE_FIXTURES,
                         ids=[r[0] for r in RULE_FIXTURES])
def test_rule_fires_on_tp_and_not_on_tn(rule_id, tp, tn):
    tp_result = analyze(tp, select=[rule_id])
    assert any(f.rule_id == rule_id for f in tp_result.findings), \
        f"{rule_id} should fire on {tp.name}"
    tn_result = analyze(tn, select=[rule_id])
    assert not tn_result.findings, \
        f"{rule_id} fired spuriously on {tn.name}: {tn_result.findings}"


def test_every_registered_rule_has_a_fixture():
    fired = {r[0] for r in RULE_FIXTURES}
    for tree in FAMILY_TREES:
        fired |= {f.rule_id for f in analyze(PROGRAM / tree).findings}
    rules = all_rules()
    assert {rule.rule_id for rule in rules} <= fired
    assert all(rule.summary for rule in rules)


def test_findings_carry_position_and_message():
    result = analyze(UNITS / "repro/core/u001_tp.py", select=["U001"])
    assert result.findings
    for finding in result.findings:
        assert finding.line >= 1
        assert finding.column >= 1
        assert finding.rule_id == "U001"
        assert finding.message
        assert ":" in finding.render()


def test_noqa_suppresses_and_is_counted():
    result = analyze(UNITS / "repro/core/noqa_demo.py", select=["U001"])
    assert not result.findings
    assert result.suppressed >= 1


def test_noqa_for_other_rule_does_not_suppress():
    for line in ("x = 1  # repro: noqa[U001]\n",
                 "x = 1  # repro: noqa [U001]\n"):
        assert parse_noqa(line)[1] == frozenset({"U001"}), line
    bare = parse_noqa("x = 1  # repro: noqa\n")
    assert bare[1] == frozenset()


def test_syntax_error_becomes_e999_finding():
    result = analyze(PROGRAM / "broken/e999.py")
    assert any(f.rule_id == "E999" for f in result.findings)


def test_package_parts_roots_at_last_repro_component():
    parts = package_parts(str(UNITS / "repro/core/u001_tp.py"))
    assert parts == ("repro", "core", "u001_tp.py")


def test_selection_prefix_resolution():
    units = {r.rule_id for r in resolve_selection(select=["U"])}
    assert units == {"U001", "U002"}
    without = {r.rule_id
               for r in resolve_selection(ignore=["U001"])}
    assert "U001" not in without
    assert "U002" in without
    with pytest.raises(ValueError):
        resolve_selection(select=["Z9"])


def test_cross_assignment_is_flagged_with_both_units():
    result = analyze(UNITS / "repro/core/u001_tp.py", select=["U001"])
    messages = " ".join(f.message for f in result.findings)
    assert "_dbm" in messages and "_db" in messages
