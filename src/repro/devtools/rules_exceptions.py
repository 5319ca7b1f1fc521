"""E/B-series: error-contract enforcement over escape sets.

Each layer names its failures with a taxonomy type
(``InverseDivergedError`` / ``PointingDivergedError`` /
``CoverageError`` ...), and the CLI maps the ones that escape to exit
codes.  These rules consume the converged escape sets of
:mod:`.exceptions` to police that contract:

* **E001** — a ``parallel_map`` / ``parallel_map_arrays`` worker whose
  escape set contains a ``BaseException``-only type (``SystemExit``,
  ``KeyboardInterrupt``): the pool does not catch it as a worker
  failure, and a worker calling ``sys.exit`` kills the child
  silently.
* **E002** — a CLI subcommand (``_cmd_*`` in a ``cli`` module) whose
  escape set contains a taxonomy type with no exception→exit-code
  mapping in that module's ``main``.
* **E003** — a public ``core`` / ``optics`` / ``link`` function
  escaping a bare ``Exception`` / ``RuntimeError`` where a taxonomy
  type should name the failure.
* **B001** — a broad handler (``except Exception`` or bare) that
  neither re-raises, translates, nor records the caught exception.
* **B002** — a dead catch: a handler naming a taxonomy type that is
  provably absent from everything the guarded region can raise (only
  claimed when every call in the region resolves to a project
  function).
* **B003** — handler ordering where a broad clause shadows a narrower
  one later in the same ``try``.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from .effects import resolve_worker
from .exceptions import (
    ExceptionTable,
    TypeLattice,
    arriving_at,
    exception_table,
    type_lattice,
    type_token,
)
from .findings import Finding
from .index import ProjectIndex
from .model import CallSite, FunctionInfo, HandlerSpec, ModuleInfo
from .registry import Rule, register_rule

#: Pool entry points guarded by E001.
POOL_LEAVES = frozenset({"parallel_map", "parallel_map_arrays"})

#: Module path components whose public API E003 holds to the taxonomy.
CONTRACT_LAYERS = frozenset({"core", "optics", "link"})

#: Escaping these from a layer function is an abdication, not a type.
VAGUE_TYPES = frozenset({"Exception", "RuntimeError"})


def _leaf(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


def _is_broad(spec: HandlerSpec) -> bool:
    if not spec.types:
        return True  # bare except
    return any(_leaf(t) in ("Exception", "BaseException")
               for t in spec.types)


def _functions(index: ProjectIndex
               ) -> Iterator[Tuple[str, ModuleInfo, str, FunctionInfo]]:
    for module in sorted(index.modules):
        info = index.modules[module]
        for qualname in sorted(info.functions):
            yield module, info, qualname, info.functions[qualname]


class _EscapeRule(Rule):
    """Shared scaffold: rules that walk functions with both tables."""

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        table = exception_table(index)
        lattice = type_lattice(index)
        for module, info, qualname, function in _functions(index):
            yield from self.check_function(index, table, lattice,
                                           module, info, qualname,
                                           function)

    def check_function(self, index: ProjectIndex,
                       table: ExceptionTable, lattice: TypeLattice,
                       module: str, info: ModuleInfo, qualname: str,
                       function: FunctionInfo) -> Iterator[Finding]:
        raise NotImplementedError


@register_rule
class WorkerEscapeRule(Rule):
    """E001: pool workers must not escape unclassifiable exceptions."""

    rule_id = "E001"
    summary = ("a parallel_map / parallel_map_arrays worker whose "
               "escape set contains SystemExit or KeyboardInterrupt "
               "kills the child process outside the pool's infra-vs-fn "
               "error classification; raise a taxonomy exception and "
               "let the parent decide")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        table = exception_table(index)
        lattice = type_lattice(index)
        for module in sorted(index.modules):
            info = index.modules[module]
            for call in info.calls:
                if _leaf(call.func) not in POOL_LEAVES:
                    continue
                yield from self._check_site(index, table, lattice,
                                            module, info, call)

    def _check_site(self, index: ProjectIndex, table: ExceptionTable,
                    lattice: TypeLattice, module: str,
                    info: ModuleInfo,
                    call: CallSite) -> Iterator[Finding]:
        fn = call.args[0] if call.args else None
        if fn is None:
            for name, value in call.keywords:
                if name == "fn":
                    fn = value
        if fn is None:
            return
        worker = resolve_worker(index, module, call, fn)
        if worker is None:
            return
        wmodule, wqual, _ = worker
        bad = sorted(
            leaf for leaf in table.escapes(wmodule, wqual)
            if lattice.is_subtype(leaf, "BaseException")
            and not lattice.is_subtype(leaf, "Exception"))
        if bad:
            yield self.finding(
                info, call.lineno, call.col,
                f"worker {fn.text!r} can escape {bad[0]} across the "
                f"{_leaf(call.func)} boundary; the pool classifies "
                "worker failures infra-vs-fn by Exception subtype and "
                f"{bad[0]} bypasses that — raise a taxonomy exception "
                "instead")


@register_rule
class CliExitMapRule(_EscapeRule):
    """E002: every subcommand escape needs an exit-code mapping."""

    rule_id = "E002"
    summary = ("a CLI subcommand whose escape set contains a taxonomy "
               "exception with no exception-to-exit-code mapping in "
               "the module's main() surfaces as a traceback and exit "
               "1 instead of the documented 0/1/2/130/143 contract")

    def check_function(self, index: ProjectIndex,
                       table: ExceptionTable, lattice: TypeLattice,
                       module: str, info: ModuleInfo, qualname: str,
                       function: FunctionInfo) -> Iterator[Finding]:
        if _leaf(module) != "cli" or not _leaf(qualname).startswith(
                "_cmd_"):
            return
        mapped: List[HandlerSpec] = []
        main = info.functions.get("main")
        if main is not None:
            for fact in main.try_facts:
                mapped.extend(fact.handlers)
        unmapped = sorted(
            leaf for leaf in table.escapes(module, qualname)
            if lattice.is_taxonomy(leaf)
            and not any(lattice.catches(spec, leaf)
                        for spec in mapped))
        for leaf in unmapped:
            yield self.finding(
                info, function.lineno, 0,
                f"subcommand {qualname!r} can escape "
                f"{lattice.qualified(leaf)} but main() maps no exit "
                "code for it; extend the exception-to-exit-code "
                "ladder in main() to keep the 0/1/2/130/143 contract")


@register_rule
class VagueEscapeRule(_EscapeRule):
    """E003: layer APIs must fail with taxonomy types, not vague ones."""

    rule_id = "E003"
    summary = ("a public core / optics / link function escaping a "
               "bare Exception or RuntimeError gives callers nothing "
               "to catch selectively; raise the taxonomy type that "
               "names the failure (PointingDivergedError, "
               "NoIntersectionError, ...)")

    def check_function(self, index: ProjectIndex,
                       table: ExceptionTable, lattice: TypeLattice,
                       module: str, info: ModuleInfo, qualname: str,
                       function: FunctionInfo) -> Iterator[Finding]:
        if not CONTRACT_LAYERS & set(module.split(".")):
            return
        if any(part.startswith("_") for part in qualname.split(".")):
            return
        vague = sorted(table.escapes(module, qualname) & VAGUE_TYPES)
        for leaf in vague:
            yield self.finding(
                info, function.lineno, 0,
                f"public function {qualname!r} can escape a bare "
                f"{leaf}; callers cannot catch it without catching "
                "everything — raise (or translate to) a taxonomy "
                "exception that names the failure")


@register_rule
class SilentSwallowRule(_EscapeRule):
    """B001: broad handlers must re-raise, translate, or record."""

    rule_id = "B001"
    summary = ("an `except Exception` / bare `except` whose body "
               "neither re-raises, translates, nor even reads the "
               "caught exception erases failures silently; narrow the "
               "type, translate to a taxonomy exception, or record "
               "the error before continuing")

    def check_function(self, index: ProjectIndex,
                       table: ExceptionTable, lattice: TypeLattice,
                       module: str, info: ModuleInfo, qualname: str,
                       function: FunctionInfo) -> Iterator[Finding]:
        for fact in function.try_facts:
            for spec in fact.handlers:
                if not _is_broad(spec):
                    continue
                if spec.action != "swallow" or spec.uses_exc:
                    continue
                caught = " ".join(spec.types) or "bare except"
                yield self.finding(
                    info, spec.lineno, spec.col,
                    f"broad handler ({caught}) in "
                    f"{qualname!r} swallows the exception without "
                    "re-raising, translating, or recording it; "
                    "narrow the caught type or handle the failure "
                    "explicitly")


@register_rule
class DeadCatchRule(_EscapeRule):
    """B002: a taxonomy catch must be reachable by a matching raise."""

    rule_id = "B002"
    summary = ("a handler catching a taxonomy exception that no "
               "raise or resolved callee in the guarded region can "
               "produce is dead code — usually a refactor moved the "
               "raising call out of the try")

    def check_function(self, index: ProjectIndex,
                       table: ExceptionTable, lattice: TypeLattice,
                       module: str, info: ModuleInfo, qualname: str,
                       function: FunctionInfo) -> Iterator[Finding]:
        for try_index, fact in enumerate(function.try_facts):
            if not fact.handlers:
                continue
            arrive: Set[str] = set()
            resolved = False
            for spec in fact.handlers:
                taxonomy = sorted(
                    t for t in (type_token(raw) for raw in spec.types)
                    if t and lattice.is_taxonomy(t))
                if not taxonomy:
                    continue
                if not resolved:
                    arrive, ok = arriving_at(index, table, module,
                                             info, qualname,
                                             try_index, lattice)
                    if not ok:
                        break  # an unresolved call could raise anything
                    resolved = True
                for leaf in taxonomy:
                    if any(lattice.is_subtype(a, leaf)
                           for a in arrive):
                        continue
                    yield self.finding(
                        info, spec.lineno, spec.col,
                        f"handler in {qualname!r} catches "
                        f"{lattice.qualified(leaf)} but nothing in "
                        "the guarded region can raise it; the catch "
                        "is dead — move the raising call back inside "
                        "the try or drop the clause")


@register_rule
class ShadowedHandlerRule(_EscapeRule):
    """B003: a broad clause must not precede a narrower one."""

    rule_id = "B003"
    summary = ("except clauses are tried in order, so a broad type "
               "before a narrower one makes the narrow handler "
               "unreachable; order handlers narrowest-first")

    def check_function(self, index: ProjectIndex,
                       table: ExceptionTable, lattice: TypeLattice,
                       module: str, info: ModuleInfo, qualname: str,
                       function: FunctionInfo) -> Iterator[Finding]:
        for fact in function.try_facts:
            for position, spec in enumerate(fact.handlers):
                for earlier in fact.handlers[:position]:
                    shadowed = sorted(
                        t for t in (type_token(raw)
                                    for raw in spec.types)
                        if t and lattice.catches(earlier, t))
                    if not spec.types and not earlier.types:
                        shadowed = ["BaseException"]
                    if shadowed:
                        before = " ".join(earlier.types) or "bare"
                        yield self.finding(
                            info, spec.lineno, spec.col,
                            f"handler for {shadowed[0]} in "
                            f"{qualname!r} is unreachable: the "
                            f"earlier {before} clause already "
                            "catches it; order handlers "
                            "narrowest-first")
                        break
