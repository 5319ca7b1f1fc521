"""repro.devtools: the repo's own static analyzer.

It guards what runtime tests cannot reach: the import-layer DAG, where
generators are minted, and the unit discipline the link budget
depends on.  It parses all of ``src/repro`` once into a **project
index** — module table, import graph, call sites and per-function
signatures, with names resolved across modules — then runs three rule
families over it:

* **L-series** — the import-layering contract (the explicit layer DAG
  ``foundation -> device -> core/link -> motion/plan ->
  simulate -> devtools/cli``): upward imports, module cycles,
  and unassigned subpackages;
* **T001** — RNG provenance: generators are minted only inside
  ``repro.determinism``;
* **U-series** — the unit-suffix convention (``_dbm``, ``_mrad``,
  ...): suffixed parameters are annotated, keyword arguments never
  cross-assign units, and array parameters are never truncated by a
  bare ``float()`` in the optics and link packages.

The error and RNG contracts beyond these are pinned at runtime:
``repro.cli.main`` maps every exception class ``repro`` defines to an
exit code (``tests/test_cli.py``), ``resolve_rng`` refuses an unseeded
stochastic component (``tests/test_determinism.py``), and the
``*_workers_do_not_change_bytes`` tests hold the process-pool
boundary.

Run it as ``python -m repro analyze``; suppress a single finding with
a ``# repro: noqa[RULE]`` comment on the offending line (bare
``# repro: noqa`` suppresses every rule on the line), and cap the
waiver count with ``--max-waivers``.  The cache has two tiers, both
keyed by content hash: per-file index entries (a one-file edit
re-parses one file) and the previous run's results (a no-change
re-run skips the rules).  The rule catalog lives in DESIGN.md §9.
"""

from .analyzer import AnalyzeResult, analyze_paths, run_rules
from .extract import extract_module, module_name_for
from .findings import Finding
from .index import DEFAULT_CACHE_DIR, ProjectIndex, build_index
from .registry import Rule, all_rules, register_rule, resolve_selection
from .reporters import render_github, render_json, render_text

__all__ = [
    "AnalyzeResult",
    "DEFAULT_CACHE_DIR",
    "Finding",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "analyze_paths",
    "build_index",
    "extract_module",
    "module_name_for",
    "register_rule",
    "render_github",
    "render_json",
    "render_text",
    "resolve_selection",
    "run_rules",
]
