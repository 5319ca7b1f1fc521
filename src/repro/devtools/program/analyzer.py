"""Run the program rules over an index, with baseline ratcheting.

The baseline file freezes pre-existing findings (as ``path + rule +
message`` fingerprints, deliberately line-insensitive so unrelated
edits don't churn it) and the analyzer reports only *new* findings —
the count can only ratchet down.  An empty or missing baseline means
every finding is new, which is the steady state this repo commits to.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...store.atomic import write_json_atomic
from ..engine import LintResult, iter_python_files
from ..findings import Finding
from .effects import (
    EFFECTS_SCHEMA_VERSION,
    attach_cached_table,
    serialized_table,
)
from .exceptions import (
    EXCEPTIONS_SCHEMA_VERSION,
    attach_cached_exception_table,
    serialized_exception_table,
)
from .index import (
    DEFAULT_CACHE_DIR,
    ProjectIndex,
    build_index,
    file_sha,
    load_cache,
    save_cache,
)
from .model import INDEX_SCHEMA_VERSION
from .registry import resolve_program_selection

#: Schema version of the committed baseline file.
BASELINE_SCHEMA_VERSION = 1

#: Default baseline location, relative to the working directory.
DEFAULT_BASELINE = ".analyze-baseline.json"


@dataclass
class AnalyzeResult(LintResult):
    """Lint-shaped result plus whole-program bookkeeping.

    ``profile`` holds per-rule-family wall time ("families": letter →
    seconds, empty when the results tier short-circuited the run) and
    cache hit/miss counters ("cache": results/effects/exceptions tier
    state plus files reused vs. re-extracted) — what
    ``analyze --profile`` renders.
    """

    from_cache: int = 0
    extracted: int = 0
    baselined: int = 0
    stale_baseline: int = 0
    profile: Dict[str, Any] = field(default_factory=dict)


def fingerprint(finding: Finding) -> Tuple[str, str, str]:
    return (finding.path, finding.rule_id, finding.message)


def load_baseline(path: str) -> Set[Tuple[str, str, str]]:
    """The baselined fingerprints ({} for a missing/invalid file)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return set()
    if not isinstance(payload, dict) or \
            payload.get("version") != BASELINE_SCHEMA_VERSION:
        return set()
    entries = payload.get("findings", [])
    baseline = set()
    for entry in entries:
        try:
            baseline.add((entry["path"], entry["rule"],
                          entry["message"]))
        except (TypeError, KeyError):
            continue
    return baseline


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    """Persist findings as the new baseline (sorted, deterministic)."""
    entries = sorted({fingerprint(f) for f in findings})
    payload = {
        "version": BASELINE_SCHEMA_VERSION,
        "findings": [
            {"path": p, "rule": r, "message": m}
            for p, r, m in entries],
    }
    write_json_atomic(path, payload, indent=2, sort_keys=True)


def run_program_rules(index: ProjectIndex,
                      select: Optional[Sequence[str]] = None,
                      ignore: Optional[Sequence[str]] = None,
                      timings: Optional[Dict[str, float]] = None
                      ) -> Tuple[List[Finding], int]:
    """(findings, suppressed count) over an index, noqa applied.

    With a ``timings`` dict, per-rule-family wall time (seconds, keyed
    by the rule-id letter prefix) is accumulated into it — the
    ``--profile`` counters.
    """
    rules = resolve_program_selection(select=select, ignore=ignore)
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
             for rule in resolve_program_selection(select=select,
                                                   ignore=ignore)]
    payload = json.dumps(
        [INDEX_SCHEMA_VERSION, EFFECTS_SCHEMA_VERSION,
         EXCEPTIONS_SCHEMA_VERSION,
         sorted(shas.items()), sorted(rules)],
        sort_keys=True)
    return file_sha(payload)


def _cached_results(payload: Dict[str, Any],
                    run_key: str) -> Optional[Dict[str, Any]]:
    results = payload.get("results")
    if isinstance(results, dict) and results.get("key") == run_key:
        return results
    return None


def analyze_paths(paths: Sequence[str],
                  select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None,
                  cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
                  baseline_path: Optional[str] = None
                  ) -> AnalyzeResult:
    """Index, analyze, baseline-filter; the package's entry point.

    With a cache directory, findings of the previous run are stored
    keyed by a hash of every input file's content plus the resolved
    rule selection: a no-change re-run returns them without even
    deserializing the index.  The baseline is applied *after* that
    (it is cheap and must not be baked into cached results).
    """
    payload: Dict[str, Any] = {}
    run_key = None
    cache_state = {"results": "miss", "effects": "miss",
                   "exceptions": "miss"}
    if cache_dir is not None:
        payload = load_cache(cache_dir)
        shas = {}
        for filename in iter_python_files(paths):
            with open(filename, "r", encoding="utf-8") as handle:
                shas[filename] = file_sha(handle.read())
        run_key = _run_key(shas, select, ignore)
        results = _cached_results(payload, run_key)
        if results is not None:
            raw = [Finding(path=f["path"], line=f["line"],
                           column=f["column"], rule_id=f["rule"],
                           message=f["message"])
                   for f in results.get("findings", [])]
            cache_state = {"results": "hit", "effects": "hit",
                           "exceptions": "hit"}
            return _finish(raw, baseline_path,
                           files_checked=int(results["files_checked"]),
                           suppressed=int(results["suppressed"]),
                           from_cache=len(shas), extracted=0,
                           profile=_profile({}, cache_state,
                                            len(shas), 0))

    index = build_index(paths, cache_dir=cache_dir,
                        cached_payload=payload if cache_dir else None,
                        save=False)
    if cache_dir is not None:
        # Third and fourth cache tiers: reuse the effect-inference and
        # exception-escape fixpoints when every input file is unchanged
        # (e.g. a warm run with a different --select missed the results
        # tier but can still skip re-deriving the summaries).
        if attach_cached_table(index, payload.get("effects", {})):
            cache_state["effects"] = "hit"
        if attach_cached_exception_table(index,
                                         payload.get("exceptions", {})):
            cache_state["exceptions"] = "hit"
    timings: Dict[str, float] = {}
    raw, suppressed = run_program_rules(index, select=select,
                                        ignore=ignore, timings=timings)
    for path, line, message in index.syntax_errors:
        raw.append(Finding(path=path, line=line, column=1,
                           rule_id="E999",
                           message=f"syntax error: {message}"))
    raw.sort(key=Finding.sort_key)
    files_checked = len(index.modules) + len(index.syntax_errors)

    if cache_dir is not None:
        files: Dict[str, Any] = dict(payload.get("files", {}))
        files.update(index.cache_entries)
        effects = serialized_table(index) or payload.get("effects")
        exceptions = serialized_exception_table(index) \
            or payload.get("exceptions")
        next_payload: Dict[str, Any] = {
            "files": files,
            "results": {
                "key": run_key,
                "findings": [f.to_dict() for f in raw],
                "suppressed": suppressed,
                "files_checked": files_checked,
            },
        }
        if effects is not None:
            next_payload["effects"] = effects
        if exceptions is not None:
            next_payload["exceptions"] = exceptions
        save_cache(cache_dir, next_payload)

    return _finish(raw, baseline_path, files_checked=files_checked,
                   suppressed=suppressed,
                   from_cache=index.from_cache,
                   extracted=index.extracted,
                   profile=_profile(timings, cache_state,
                                    index.from_cache, index.extracted))


def _profile(timings: Dict[str, float], cache_state: Dict[str, str],
             files_cached: int, files_extracted: int) -> Dict[str, Any]:
    return {
        "families": {family: round(seconds, 6)
                     for family, seconds in sorted(timings.items())},
        "cache": {
            "results": cache_state["results"],
            "effects": cache_state["effects"],
            "exceptions": cache_state["exceptions"],
            "files_cached": files_cached,
            "files_extracted": files_extracted,
        },
    }


def _finish(raw: List[Finding], baseline_path: Optional[str],
            files_checked: int, suppressed: int, from_cache: int,
            extracted: int,
            profile: Optional[Dict[str, Any]] = None) -> AnalyzeResult:
    baseline = load_baseline(baseline_path) if baseline_path else set()
    new = [f for f in raw if fingerprint(f) not in baseline]
    matched = {fingerprint(f) for f in raw} & baseline
    return AnalyzeResult(
        findings=new,
        files_checked=files_checked,
        suppressed=suppressed,
        from_cache=from_cache,
        extracted=extracted,
        baselined=len(raw) - len(new),
        stale_baseline=len(baseline) - len(matched),
        profile=profile or {})
