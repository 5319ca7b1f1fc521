"""T-series: RNG provenance taint across the program.

The determinism contract (:mod:`repro.determinism`) says every
stochastic component draws from a generator its caller threaded in.
These rules track *provenance*: generators may only be minted inside
``repro.determinism`` (T001), must never be captured across the
``parallel_map`` process boundary (T002) — worker processes re-seed
from explicit per-item seeds, a pickled generator would silently fork
the stream — and every stochastic sink must be handed a generator or
seed the analyzer can trace back to ``resolve_rng`` / ``spawn`` /
``derive`` (T003).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from .extract import RNG_PRODUCERS
from .findings import Finding
from .index import ProjectIndex, ResolvedCallee
from .model import CallSite, ModuleInfo, ValueDesc
from .registry import Rule, register_rule

#: The one module allowed to call the numpy generator factories.
SANCTIONED_MINT = "repro.determinism"

#: Callee leaves that *mint* a fresh generator from numpy.
_FACTORY_LEAVES = frozenset({"default_rng", "RandomState"})

#: Callee leaves that derive a generator under the contract.
_SANCTIONED_LEAVES = frozenset({"resolve_rng", "spawn", "derive"})


def _leaf(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


def _is_rngish(name: str, sources: Set[str]) -> bool:
    return name in sources or name == "rng" or name.endswith("_rng")


def _module_rng_sources(info: ModuleInfo) -> Set[str]:
    """Module-level names bound to generator-producing calls."""
    return {call.bound_to for call in info.calls
            if call.in_function == "" and call.bound_to
            and call.func and _leaf(call.func) in RNG_PRODUCERS}


def _enclosing_sources(info: ModuleInfo, call: CallSite) -> Set[str]:
    sources = _module_rng_sources(info)
    function = info.functions.get(call.in_function)
    if function is not None:
        sources.update(function.rng_sources)
    return sources


@register_rule
class MintDisciplineRule(Rule):
    """T001: generators are minted only inside repro.determinism."""

    rule_id = "T001"
    summary = ("np.random.default_rng / RandomState may be called "
               "only inside repro.determinism; everything else uses "
               "resolve_rng / spawn / derive so provenance stays "
               "traceable")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for module in sorted(index.modules):
            if not module.startswith("repro") or \
                    module == SANCTIONED_MINT:
                continue
            info = index.modules[module]
            for call in info.calls:
                if not call.func:
                    continue
                if _leaf(call.func) not in _FACTORY_LEAVES:
                    continue
                root = call.func.split(".")[0]
                if root not in ("np", "numpy", "default_rng",
                                "RandomState"):
                    continue
                yield self.finding(
                    info, call.lineno, call.col,
                    f"{call.func}() mints a generator outside "
                    f"{SANCTIONED_MINT}; use resolve_rng(seed=...), "
                    "spawn(parent) or derive(*keys) so RNG "
                    "provenance stays auditable")


@register_rule
class PoolBoundaryRule(Rule):
    """T002: no RNG object crosses the parallel_map boundary."""

    rule_id = "T002"
    summary = ("parallel_map callables and item lists must not carry "
               "RNG objects across the process boundary; pass "
               "explicit per-item seeds instead")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for module in sorted(index.modules):
            info = index.modules[module]
            for call in info.calls:
                if not self._is_parallel_map(index, module, call):
                    continue
                sources = _enclosing_sources(info, call)
                fn = self._argument(call, 0, "fn")
                items = self._argument(call, 1, "items")
                if fn is not None:
                    yield from self._check_callable(info, call, fn,
                                                    sources)
                if items is not None:
                    yield from self._check_items(info, call, items,
                                                 sources)

    def _is_parallel_map(self, index: ProjectIndex, module: str,
                         call: CallSite) -> bool:
        if not call.func or _leaf(call.func) != "parallel_map":
            return False
        callee = index.resolve_call(module, call)
        if callee is None:
            return True  # unresolved but unambiguous by name
        return callee.qualified == "repro.parallel.parallel_map"

    def _argument(self, call: CallSite, position: int,
                  keyword: str) -> Optional[ValueDesc]:
        if len(call.args) > position:
            return call.args[position]
        for name, value in call.keywords:
            if name == keyword:
                return value
        return None

    def _check_callable(self, info: ModuleInfo, call: CallSite,
                        fn: ValueDesc,
                        sources: Set[str]) -> Iterator[Finding]:
        minted = {c for c in fn.calls if _leaf(c) in RNG_PRODUCERS}
        if minted:
            culprit = sorted(minted)[0]
            yield self.finding(
                info, call.lineno, call.col,
                f"parallel_map callable builds an RNG ({culprit}) "
                "that would be pickled into the workers; pass a "
                "per-item seed and resolve it worker-side")
            return
        if fn.kind in ("lambda", "call"):
            captured = sorted(n for n in fn.names
                              if _is_rngish(n, sources))
            if captured:
                yield self.finding(
                    info, call.lineno, call.col,
                    f"parallel_map callable captures RNG "
                    f"{captured[0]!r}; a generator crossing the "
                    "process-pool boundary forks its stream — pass "
                    "an explicit per-item seed instead")

    def _check_items(self, info: ModuleInfo, call: CallSite,
                     items: ValueDesc,
                     sources: Set[str]) -> Iterator[Finding]:
        minted = sorted(c for c in items.calls
                        if _leaf(c) in RNG_PRODUCERS)
        if minted:
            yield self.finding(
                info, call.lineno, call.col,
                f"parallel_map items contain RNG objects "
                f"({minted[0]}); ship per-item seeds across the "
                "pool boundary, not generators")
            return
        carried = sorted(n for n in items.names
                         if _is_rngish(n, sources))
        if carried:
            yield self.finding(
                info, call.lineno, call.col,
                f"parallel_map items reference RNG {carried[0]!r}; "
                "ship per-item seeds across the pool boundary, not "
                "generators")


@register_rule
class SinkProvenanceRule(Rule):
    """T003: stochastic sinks get a traceable rng/seed, or fail."""

    rule_id = "T003"
    summary = ("every call to a stochastic component (one whose "
               "constructor calls resolve_rng) must thread rng=/"
               "seed=/deterministic= — and an rng= value must trace "
               "back to resolve_rng/spawn/derive")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        sinks = self._stochastic_sinks(index)
        for module in sorted(index.modules):
            info = index.modules[module]
            for call in info.calls:
                callee = index.resolve_call(module, call)
                if callee is None or callee.qualified not in sinks:
                    continue
                yield from self._check_sink(
                    index, info, call, callee)

    def _stochastic_sinks(self, index: ProjectIndex) -> Set[str]:
        """Qualified names whose invocation resolves an RNG."""
        sinks: Set[str] = set()
        for module, info in index.modules.items():
            for name, klass in info.classes.items():
                for ctor in (f"{name}.__init__",
                             f"{name}.__post_init__"):
                    function = info.functions.get(ctor)
                    if function is not None and \
                            function.calls_resolve_rng:
                        sinks.add(f"{module}.{name}")
                        break
            for name, function in info.functions.items():
                if "." in name or not function.calls_resolve_rng:
                    continue
                if any(p.name in ("rng", "seed")
                       for p in function.params):
                    sinks.add(f"{module}.{name}")
        return sinks

    def _check_sink(self, index: ProjectIndex, info: ModuleInfo,
                    call: CallSite,
                    callee: ResolvedCallee) -> Iterator[Finding]:
        param_names, _ = index.constructor_params(callee)
        provided: Dict[str, ValueDesc] = {}
        for position, value in enumerate(call.args):
            if position < len(param_names):
                provided[param_names[position]] = value
        for keyword, value in call.keywords:
            if keyword != "**":
                provided[keyword] = value
        rng_value = provided.get("rng")
        has_rng_channel = any(name in param_names
                              for name in ("rng", "seed",
                                           "deterministic"))
        if not has_rng_channel:
            return
        if rng_value is not None:
            yield from self._check_provenance(info, call, callee,
                                              rng_value)
            return
        if "seed" in provided or "deterministic" in provided:
            return
        if self._has_safe_default(callee):
            return
        yield self.finding(
            info, call.lineno, call.col,
            f"{callee.qualified} is a stochastic component but this "
            "call threads no rng=/seed=/deterministic=; under the "
            "determinism contract resolve_rng will raise at runtime")

    def _has_safe_default(self, callee: ResolvedCallee) -> bool:
        """True when omitting rng/seed still yields a seeded stream."""
        params = ()
        if callee.kind == "class" and callee.klass is not None:
            params = callee.klass.fields
        elif callee.function is not None:
            params = callee.function.params
        for param in params:
            if param.name in ("rng", "seed") and param.has_default \
                    and not param.default_is_none:
                return True
        return False

    def _check_provenance(self, info: ModuleInfo, call: CallSite,
                          callee: ResolvedCallee,
                          value: ValueDesc) -> Iterator[Finding]:
        if value.kind == "call":
            leaf = _leaf(value.text) if value.text else ""
            if leaf in _SANCTIONED_LEAVES or leaf in _FACTORY_LEAVES:
                return  # direct mints are already T001 findings
        elif value.kind == "name":
            sources = _enclosing_sources(info, call)
            if _is_rngish(value.text, sources):
                return
        elif value.kind == "attr":
            if "rng" in _leaf(value.text):
                return
        elif value.kind == "const":
            return  # rng=None explicitly defers to seed/deterministic
        yield self.finding(
            info, call.lineno, call.col,
            f"rng= argument {value.text or value.kind!r} to "
            f"{callee.qualified} cannot be traced to resolve_rng/"
            "spawn/derive; thread the generator from a sanctioned "
            "source")
