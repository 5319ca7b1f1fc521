"""The ``python -m repro analyze`` front end.

Exit codes follow compiler conventions: 0 clean, 1 findings, 2 usage
error (unknown rule, empty ``--select``, negative ``--max-waivers``,
missing path, two files with one dotted module name).  ``--warn-only``
reports findings but exits 0 -- the mode used to survey
``benchmarks/`` and ``examples/`` without gating on them.
``--max-waivers N`` turns the suppression count itself into a budget:
``# repro: noqa`` waivers beyond N fail the run, so the waiver list
can only ratchet down.
Diagnostics go to stderr, so ``--format json`` stdout always parses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analyzer import analyze_paths
from .registry import all_rules
from .reporters import render_github, render_json, render_text


def default_target() -> str:
    """The installed ``repro`` package directory.

    Makes ``python -m repro analyze`` work from any CWD: the contract
    is "the package is clean", not "whatever happens to be here is
    clean".
    """
    return str(Path(__file__).resolve().parent.parent)


def _waiver_budget(text: str) -> int:
    """``--max-waivers`` type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


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
        "--max-waivers", type=_waiver_budget, default=None, metavar="N",
        help="fail (exit 1) when more than N findings are waived by "
             "noqa comments; the repo's waiver budget only ratchets "
             "down")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")


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
    try:
        result = analyze_paths(paths, select=_split(args.select),
                               ignore=_split(args.ignore))
    except (ValueError, FileNotFoundError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    elif args.format == "github":
        print(render_github(result))
    else:
        print(render_text(result))
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
