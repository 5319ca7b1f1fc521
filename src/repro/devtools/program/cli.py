"""The ``python -m repro analyze`` front end.

Exit codes match ``repro lint``: 0 clean (no *new* findings beyond the
committed baseline), 1 new findings, 2 usage error.  ``--write-
baseline`` snapshots the current findings so a legacy violation can be
ratcheted instead of blocking; the committed steady state is an empty
baseline.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import List, Optional

from ..cli import default_lint_target
from ..reporters import (
    render_github,
    render_json,
    render_text,
    to_payload,
)
from .analyzer import DEFAULT_BASELINE, analyze_paths, write_baseline
from .index import DEFAULT_CACHE_DIR
from .registry import all_program_rules


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the analyze options to a (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to analyze (default: the repro "
             "package)")
    parser.add_argument(
        "--format", choices=("text", "json", "github"),
        default="text", help="output format (default text)")
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids/prefixes to run (e.g. L,X001)")
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids/prefixes to skip")
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, metavar="FILE",
        help="baseline file of ratcheted findings (default "
             f"{DEFAULT_BASELINE}; missing file = empty baseline)")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="snapshot current findings into the baseline file and "
             "exit 0")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk index cache")
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"index cache directory (default {DEFAULT_CACHE_DIR})")
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report findings but exit 0 (survey mode)")
    parser.add_argument(
        "--max-waivers", type=int, default=None, metavar="N",
        help="fail when more than N findings are suppressed via "
             "noqa (waiver budget; default: unlimited)")
    parser.add_argument(
        "--stats", action="store_true",
        help="print index/cache statistics after the report")
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-rule-family wall time and cache hit/miss "
             "counters (included under \"profile\" in --format json)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the program-rule catalog and exit")


def _split(option: Optional[str]) -> Optional[List[str]]:
    if option is None:
        return None
    return [entry for entry in option.split(",") if entry.strip()]


def run_analyze(args: argparse.Namespace) -> int:
    """Execute the analyze command; returns the process exit code."""
    if args.list_rules:
        for rule in all_program_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return 0
    paths = args.paths or [default_lint_target()]
    cache_dir = None if args.no_cache else args.cache_dir
    started = time.perf_counter()
    try:
        result = analyze_paths(
            paths, select=_split(args.select),
            ignore=_split(args.ignore), cache_dir=cache_dir,
            baseline_path=args.baseline)
    except (ValueError, FileNotFoundError) as exc:
        print(f"analyze: {exc}")
        return 2
    elapsed = time.perf_counter() - started

    if args.write_baseline:
        write_baseline(args.baseline, result.findings)
        print(f"wrote {len(result.findings)} finding"
              f"{'s' if len(result.findings) != 1 else ''} to "
              f"{args.baseline}")
        return 0

    if args.format == "json":
        payload = to_payload(result)
        payload.update({
            "from_cache": result.from_cache,
            "extracted": result.extracted,
            "baselined": result.baselined,
            "stale_baseline": result.stale_baseline,
        })
        if args.profile:
            payload["profile"] = result.profile
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "github":
        print(render_github(result))
    else:
        print(render_text(result))
        if result.baselined:
            print(f"{result.baselined} pre-existing finding"
                  f"{'s' if result.baselined != 1 else ''} held by "
                  f"the baseline ({args.baseline})")
        if result.stale_baseline:
            print(f"note: {result.stale_baseline} baseline entr"
                  f"{'ies are' if result.stale_baseline != 1 else 'y is'}"
                  " stale (finding fixed); re-run with "
                  "--write-baseline to shrink it")
    if args.stats:
        print(f"index: {result.files_checked} modules "
              f"({result.from_cache} cached, {result.extracted} "
              f"extracted) in {elapsed:.3f} s")
    if args.profile and args.format != "json":
        _print_profile(result.profile, elapsed)
    if args.max_waivers is not None and \
            result.suppressed > args.max_waivers:
        print(f"analyze: {result.suppressed} noqa waiver"
              f"{'s' if result.suppressed != 1 else ''} exceed the "
              f"budget of {args.max_waivers}; remove suppressions or "
              "raise --max-waivers deliberately")
        return 1
    if result.findings and not args.warn_only:
        return 1
    return 0


def _print_profile(profile: dict, elapsed: float) -> None:
    """Render the --profile counters (text formats)."""
    families = profile.get("families", {})
    cache = profile.get("cache", {})
    if families:
        widest = max(len(family) for family in families)
        for family in sorted(families):
            print(f"profile: family {family:<{widest}} "
                  f"{families[family] * 1000.0:9.3f} ms")
    else:
        print("profile: rule families not run "
              "(results cache hit)")
    tiers = ", ".join(f"{tier} {cache.get(tier, 'miss')}"
                      for tier in ("results", "effects", "exceptions"))
    print(f"profile: cache {tiers}; files "
          f"{cache.get('files_cached', 0)} cached / "
          f"{cache.get('files_extracted', 0)} extracted; total "
          f"{elapsed:.3f} s")
