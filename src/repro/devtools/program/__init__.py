"""repro.devtools.program: the whole-program analyzer.

Where ``repro lint`` checks one file at a time, this package parses
all of ``src/repro`` once into a **project index** — module table,
import graph, and a resolved call graph with per-function parameter /
return unit signatures inferred from the repo's ``*_dbm`` / ``*_mw`` /
``*_mrad`` suffix convention — then runs its interprocedural rule
families over it:

* **L-series** — the import-layering contract (the explicit layer DAG
  ``geometry/optics/galvo/vrh -> core/link -> motion/plan ->
  simulate/faults -> devtools/cli``): upward imports, module cycles,
  and unassigned subpackages;
* **X-series** — call-site unit flow: argument-vs-parameter suffix
  mismatches across files, dB-vs-linear mixing through the
  ``repro.optics.units`` converters, and return values bound to
  differently-suffixed names;
* **T-series** — RNG provenance taint: generators minted only inside
  ``repro.determinism``, no RNG object crossing the ``parallel_map``
  process boundary, and every stochastic sink threaded a traceable
  ``rng=`` / ``seed=``;
* **W-series** — crash safety over the effect inference of
  :mod:`.effects`: truncating writes to published paths
  (tmp→rename scopes are proven safe interprocedurally), publish
  renames without a preceding fsync, and journal/manifest mutation
  outside the orchestrator's checksummed append path;
* **E/B/R-series** — error contracts over the interprocedural
  exception-escape inference of :mod:`.exceptions`: escape-set
  violations (unclassifiable worker exceptions, CLI subcommands with
  no exit-code mapping, vague ``Exception``/``RuntimeError`` escapes
  from layer APIs), swallow discipline (silent broad handlers, dead
  taxonomy catches, shadowed clause ordering), and retry/cleanup
  discipline (retry loops not covering callee escapes, uncleaned
  resources on raise paths, ``sys.exit`` inside ``SignalGuard``
  regions).

Run it as ``python -m repro analyze``.  The index is cached on disk
keyed by content hash (warm re-runs skip parsing entirely), the
effect and exception fixpoints are cached as separate tiers,
and findings ratchet against a committed baseline file — new findings
fail, pre-existing ones are frozen until burned down.
"""

from .analyzer import (
    DEFAULT_BASELINE,
    AnalyzeResult,
    analyze_paths,
    load_baseline,
    run_program_rules,
    write_baseline,
)
from .effects import (
    EffectSummary,
    EffectTable,
    effect_table,
    effects_key,
)
from .exceptions import (
    ExceptionSummary,
    ExceptionTable,
    TypeLattice,
    exception_table,
    exceptions_key,
    type_lattice,
)
from .extract import extract_module, module_name_for
from .index import (
    DEFAULT_CACHE_DIR,
    ProjectIndex,
    ResolvedCallee,
    build_index,
)
from .model import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ImportedName,
    ModuleInfo,
    ParamInfo,
    ValueDesc,
)
from .registry import (
    ProgramRule,
    all_program_rules,
    register_program_rule,
    resolve_program_selection,
)

__all__ = [
    "AnalyzeResult",
    "CallSite",
    "ClassInfo",
    "DEFAULT_BASELINE",
    "DEFAULT_CACHE_DIR",
    "EffectSummary",
    "EffectTable",
    "ExceptionSummary",
    "ExceptionTable",
    "FunctionInfo",
    "ImportedName",
    "ModuleInfo",
    "ParamInfo",
    "ProgramRule",
    "ProjectIndex",
    "ResolvedCallee",
    "TypeLattice",
    "ValueDesc",
    "all_program_rules",
    "analyze_paths",
    "build_index",
    "effect_table",
    "effects_key",
    "exception_table",
    "exceptions_key",
    "extract_module",
    "load_baseline",
    "module_name_for",
    "register_program_rule",
    "resolve_program_selection",
    "run_program_rules",
    "type_lattice",
    "write_baseline",
]
