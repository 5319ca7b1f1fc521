"""Run the rules over an index, with a two-tier content-hash cache.

Tier one is the per-file index (:func:`~.index.build_index`): each
file's extracted :class:`~.model.ModuleInfo` keyed by its SHA-256, so
a run after a one-file edit re-parses only that file.  Tier two is the
results of the previous run, keyed by every input file's SHA plus the
resolved rule selection: a no-change re-run returns them without even
deserializing the index.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .findings import Finding
from .index import (
    DEFAULT_CACHE_DIR,
    ProjectIndex,
    build_index,
    file_sha,
    iter_python_files,
    load_cache,
    save_cache,
)
from .model import INDEX_SCHEMA_VERSION
from .registry import resolve_selection


@dataclass
class AnalyzeResult:
    """Findings plus bookkeeping from one analyzer run.

    ``suppressed`` counts findings waived by ``# repro: noqa``.
    ``profile`` holds per-rule-family wall time ("families": letter →
    seconds, empty when the results tier short-circuited the run) and
    cache counters ("cache": results-tier hit/miss plus files reused
    vs. re-extracted) — what ``analyze --profile`` renders.
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    from_cache: int = 0
    extracted: int = 0
    profile: Dict[str, Any] = field(default_factory=dict)


def run_rules(index: ProjectIndex,
                      select: Optional[Sequence[str]] = None,
                      ignore: Optional[Sequence[str]] = None,
                      timings: Optional[Dict[str, float]] = None
                      ) -> Tuple[List[Finding], int]:
    """(findings, suppressed count) over an index, noqa applied.

    With a ``timings`` dict, per-rule-family wall time (seconds, keyed
    by the rule-id letter prefix) is accumulated into it — the
    ``--profile`` counters.
    """
    rules = resolve_selection(select=select, ignore=ignore)
    by_path = {info.path: info for info in index.modules.values()}
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        start = time.monotonic()
        for finding in rule.check(index):
            info = by_path.get(finding.path)
            if info is not None and \
                    info.is_suppressed(finding.line, finding.rule_id):
                suppressed += 1
                continue
            findings.append(finding)
        if timings is not None:
            family = rule.rule_id[:1]
            timings[family] = timings.get(family, 0.0) + \
                (time.monotonic() - start)
    findings.sort(key=Finding.sort_key)
    return findings, suppressed


def _run_key(shas: Dict[str, str],
             select: Optional[Sequence[str]],
             ignore: Optional[Sequence[str]]) -> str:
    """Content hash of everything the rule findings depend on."""
    rules = [rule.rule_id
             for rule in resolve_selection(select=select,
                                                   ignore=ignore)]
    payload = json.dumps(
        [INDEX_SCHEMA_VERSION, sorted(shas.items()), sorted(rules)],
        sort_keys=True)
    return file_sha(payload)


def _profile(timings: Dict[str, float], results: str,
             files_cached: int, files_extracted: int) -> Dict[str, Any]:
    return {
        "families": {family: round(seconds, 6)
                     for family, seconds in sorted(timings.items())},
        "cache": {
            "results": results,
            "files_cached": files_cached,
            "files_extracted": files_extracted,
        },
    }


def analyze_paths(paths: Sequence[str],
                  select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None,
                  cache_dir: Optional[str] = DEFAULT_CACHE_DIR
                  ) -> AnalyzeResult:
    """Index and analyze files/directories; the package's entry point.

    ``cache_dir=None`` disables both cache tiers.  Files that fail to
    parse become ``E999`` findings instead of aborting the run.
    """
    payload: Dict[str, Any] = {}
    run_key = None
    if cache_dir is not None:
        payload = load_cache(cache_dir)
        shas = {}
        for filename in iter_python_files(paths):
            with open(filename, "r", encoding="utf-8") as handle:
                shas[filename] = file_sha(handle.read())
        run_key = _run_key(shas, select, ignore)
        results = payload.get("results")
        if isinstance(results, dict) and results.get("key") == run_key:
            return AnalyzeResult(
                findings=[Finding(path=f["path"], line=f["line"],
                                  column=f["column"], rule_id=f["rule"],
                                  message=f["message"])
                          for f in results.get("findings", [])],
                files_checked=int(results["files_checked"]),
                suppressed=int(results["suppressed"]),
                from_cache=len(shas),
                profile=_profile({}, "hit", len(shas), 0))

    index = build_index(paths, cached_files=payload.get("files"))
    timings: Dict[str, float] = {}
    findings, suppressed = run_rules(
        index, select=select, ignore=ignore, timings=timings)
    for path, line, message in index.syntax_errors:
        findings.append(Finding(path=path, line=line, column=1,
                                rule_id="E999",
                                message=f"syntax error: {message}"))
    findings.sort(key=Finding.sort_key)
    files_checked = len(index.modules) + len(index.syntax_errors)

    if cache_dir is not None:
        # Entries merge over the old cache: analyzing a subtree must
        # not evict the rest of the project's entries.
        files: Dict[str, Any] = dict(payload.get("files", {}))
        files.update(index.cache_entries)
        save_cache(cache_dir, {
            "files": files,
            "results": {
                "key": run_key,
                "findings": [f.to_dict() for f in findings],
                "suppressed": suppressed,
                "files_checked": files_checked,
            },
        })

    return AnalyzeResult(
        findings=findings, files_checked=files_checked,
        suppressed=suppressed, from_cache=index.from_cache,
        extracted=index.extracted,
        profile=_profile(timings, "miss", index.from_cache,
                         index.extracted))
