"""repro.devtools: the repo's own static analyzer.

Byte-identical output per seed is the repo's headline contract;
this package guards it (and the unit discipline the link
budget depends on) at analysis time instead of hoping runtime tests
trip over violations.  It parses all of ``src/repro`` once into a
**project index** — module table, import graph, and a resolved call
graph with per-function signatures — then runs six rule families over
it:

* **L-series** — the import-layering contract (the explicit layer DAG
  ``foundation -> device -> core/link -> motion/plan ->
  simulate -> devtools/cli``): upward imports, module cycles,
  and unassigned subpackages;
* **T-series** — RNG provenance taint: generators minted only inside
  ``repro.determinism``, no RNG object crossing the ``parallel_map``
  process boundary, and every stochastic sink threaded a traceable
  ``rng=`` / ``seed=``;
* **U-series** — the unit-suffix convention (``_dbm``, ``_mrad``,
  ...): suffixed parameters are annotated, keyword arguments never
  cross-assign units, and array parameters are never truncated by a
  bare ``float()`` in the optics and link packages;
* **W-series** — crash safety over the effect inference of
  :mod:`.effects`: truncating writes to published paths
  (tmp→rename scopes are proven safe interprocedurally) and publish
  renames without a preceding fsync;
* **E/B-series** — error contracts over the interprocedural
  exception-escape inference of :mod:`.exceptions`: escape-set
  violations (unclassifiable worker exceptions, CLI subcommands with
  no exit-code mapping, vague ``Exception``/``RuntimeError`` escapes
  from layer APIs) and swallow discipline (silent broad handlers, dead
  taxonomy catches, shadowed clause ordering).

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
