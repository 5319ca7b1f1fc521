"""Run the rules over an index: one stateless pass.

:func:`analyze_paths` parses and extracts every file, runs the
selected rules, applies ``# repro: noqa`` waivers and reports files
that fail to parse as ``E999`` findings.  It reads only the source
files and writes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .findings import Finding
from .index import ProjectIndex, build_index
from .registry import resolve_selection


@dataclass
class AnalyzeResult:
    """Findings plus bookkeeping from one analyzer run.

    ``suppressed`` counts findings waived by ``# repro: noqa``.
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0


def run_rules(index: ProjectIndex,
              select: Optional[Sequence[str]] = None,
              ignore: Optional[Sequence[str]] = None
              ) -> Tuple[List[Finding], int]:
    """(findings, suppressed count) over an index, noqa applied."""
    rules = resolve_selection(select=select, ignore=ignore)
    by_path = {info.path: info for info in index.modules.values()}
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(index):
            info = by_path.get(finding.path)
            if info is not None and \
                    info.is_suppressed(finding.line, finding.rule_id):
                suppressed += 1
                continue
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings, suppressed


def analyze_paths(paths: Sequence[str],
                  select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None
                  ) -> AnalyzeResult:
    """Index and analyze files/directories; the package's entry point.

    Files that fail to parse become ``E999`` findings instead of
    aborting the run.
    """
    index = build_index(paths)
    findings, suppressed = run_rules(index, select=select, ignore=ignore)
    for path, line, message in index.syntax_errors:
        findings.append(Finding(path=path, line=line, column=1,
                                rule_id="E999",
                                message=f"syntax error: {message}"))
    findings.sort(key=Finding.sort_key)
    return AnalyzeResult(
        findings=findings,
        files_checked=len(index.modules) + len(index.syntax_errors),
        suppressed=suppressed)
