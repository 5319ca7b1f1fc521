"""The ``python -m repro analyze`` front end.

Exit codes follow compiler conventions: 0 clean, 1 findings, 2 usage
error (unknown rule, missing path).  ``--warn-only`` reports findings
but exits 0 -- the mode used to survey ``benchmarks/`` and
``examples/`` without gating on them.  ``--max-waivers N`` turns the
suppression count itself into a budget: ``# repro: noqa`` waivers
beyond N fail the run, so the waiver list can only ratchet down.
Diagnostics go to stderr, so ``--format json`` stdout always parses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .analyzer import analyze_paths
from .index import DEFAULT_CACHE_DIR
from .registry import all_rules
from .reporters import render_github, render_text, to_payload


def default_target() -> str:
    """The installed ``repro`` package directory.

    Makes ``python -m repro analyze`` work from any CWD: the contract
    is "the package is clean", not "whatever happens to be here is
    clean".
    """
    return str(Path(__file__).resolve().parent.parent)


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the analyze options to a (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to analyze (default: the repro "
             "package)")
    parser.add_argument(
        "--format", choices=("text", "json", "github"),
        default="text",
        help="output format (default text; github emits ::error "
             "workflow annotations)")
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids/prefixes to run (e.g. L,U001)")
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids/prefixes to skip")
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report findings but exit 0 (survey mode)")
    parser.add_argument(
        "--max-waivers", type=int, default=None, metavar="N",
        help="fail (exit 1) when more than N findings are waived by "
             "noqa comments; the repo's waiver budget only ratchets "
             "down")
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-rule-family wall time, cache hit/miss and "
             "file counters, and the total time (included under "
             "\"profile\" in --format json)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk cache")
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"cache directory (default {DEFAULT_CACHE_DIR})")


def _split(option: Optional[str]) -> Optional[List[str]]:
    if option is None:
        return None
    return [entry for entry in option.split(",") if entry.strip()]


def run_analyze(args: argparse.Namespace) -> int:
    """Execute the analyze command; returns the process exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return 0
    paths = args.paths or [default_target()]
    cache_dir = None if args.no_cache else args.cache_dir
    started = time.perf_counter()
    try:
        result = analyze_paths(paths, select=_split(args.select),
                               ignore=_split(args.ignore),
                               cache_dir=cache_dir)
    except (ValueError, FileNotFoundError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    if args.format == "json":
        payload = to_payload(result)
        if args.profile:
            payload["profile"] = result.profile
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "github":
        print(render_github(result))
    else:
        print(render_text(result))
    if args.profile and args.format != "json":
        _print_profile(result.profile, elapsed)
    if args.max_waivers is not None and \
            result.suppressed > args.max_waivers:
        print(f"analyze: {result.suppressed} noqa waiver"
              f"{'s' if result.suppressed != 1 else ''} exceed the "
              f"budget of {args.max_waivers}; remove suppressions or "
              "raise --max-waivers deliberately", file=sys.stderr)
        return 1
    if result.findings and not args.warn_only:
        return 1
    return 0


def _print_profile(profile: Dict[str, Any], elapsed: float) -> None:
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
    print(f"profile: cache results {cache.get('results', 'miss')}; "
          f"files {cache.get('files_cached', 0)} cached / "
          f"{cache.get('files_extracted', 0)} extracted; total "
          f"{elapsed:.3f} s")
