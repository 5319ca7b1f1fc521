"""Text, JSON and GitHub-annotation reporters for analyzer results."""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict

from .analyzer import AnalyzeResult

#: Schema version of the JSON payload; bump on breaking changes.
JSON_SCHEMA_VERSION = 3


def render_text(result: AnalyzeResult) -> str:
    """Compiler-style ``path:line:col RULE message`` lines + summary."""
    lines = [finding.render() for finding in result.findings]
    counts = Counter(f.rule_id for f in result.findings)
    if result.findings:
        by_rule = ", ".join(f"{rule} x{count}"
                            for rule, count in sorted(counts.items()))
        lines.append(f"{len(result.findings)} finding"
                     f"{'s' if len(result.findings) != 1 else ''} "
                     f"({by_rule}) in {result.files_checked} files")
    else:
        lines.append(f"clean: {result.files_checked} files, "
                     f"{result.suppressed} suppressed")
    return "\n".join(lines)


def to_payload(result: AnalyzeResult) -> Dict[str, Any]:
    """The JSON-serializable form of an analyzer run."""
    counts = Counter(f.rule_id for f in result.findings)
    return {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "counts": dict(sorted(counts.items())),
        "findings": [f.to_dict() for f in result.findings],
    }


def render_json(result: AnalyzeResult) -> str:
    """Deterministically ordered JSON (sorted findings, sorted keys)."""
    return json.dumps(to_payload(result), indent=2, sort_keys=True)


def _escape_workflow_data(text: str) -> str:
    """GitHub workflow-command escaping for the message portion."""
    return (text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


def render_github(result: AnalyzeResult) -> str:
    """GitHub Actions ``::error`` workflow annotations, one per finding.

    Emitted to stdout during a CI run, these surface as inline
    annotations on the PR diff.  The trailing summary line is plain
    text (GitHub ignores lines that are not workflow commands).
    """
    lines = [
        f"::error file={f.path},line={f.line},col={f.column},"
        f"title={f.rule_id}::{_escape_workflow_data(f.message)}"
        for f in result.findings
    ]
    lines.append(f"{len(result.findings)} finding"
                 f"{'s' if len(result.findings) != 1 else ''} in "
                 f"{result.files_checked} files")
    return "\n".join(lines)
