"""Interprocedural exception-flow inference: escape sets per function.

Every function in the index gets a converged **escape set** — the
exception types that can propagate out of it uncaught.  Direct facts
come from the per-function raise/handler walk in :mod:`.extract`:

* a ``raise X(...)`` contributes ``X`` filtered through the enclosing
  ``try`` handlers at that exact position (a raise inside a handler or
  ``finally`` body is guarded only by *outer* trys, matching Python
  semantics);
* a ``sys.exit(...)`` call contributes ``SystemExit`` the same way;
* a resolved call site inherits the callee's escape set, subtracted
  per call site by the handlers guarding it — ``try: solve() except
  InverseDivergedError: ...`` removes exactly what that clause
  catches, with ``reraise`` handlers passing types through and
  ``translate`` / ``raise`` handlers absorbing them (their replacement
  raise is its own direct fact).

Subtype subtraction runs over a leaf-name lattice merging the builtin
exception hierarchy with every class the index defines
(``CoverageError → ValueError → Exception``), so ``except ValueError``
provably catches ``CoverageError``.  The inference is deliberately an
*under*-approximation: unresolvable calls (externals, bound methods)
contribute nothing, so every type in an escape set is positively
known to be raisable — the property the E/B rule families
(:mod:`.rules_exceptions`) fire on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .index import ProjectIndex
from .model import (
    CallGuard,
    CallSite,
    FunctionInfo,
    HandlerSpec,
    ModuleInfo,
)

#: The builtin exception hierarchy (child leaf -> parent leaf), enough
#: for subtype subtraction over the types real handlers name.
BUILTIN_EXCEPTION_BASES: Mapping[str, str] = {
    "SystemExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "GeneratorExit": "BaseException",
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "BlockingIOError": "OSError",
    "ChildProcessError": "OSError",
    "ProcessLookupError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "TimeoutError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "JSONDecodeError": "ValueError",
    "Warning": "Exception",
    "UserWarning": "Warning",
    "RuntimeWarning": "Warning",
}


def type_token(dotted: str) -> str:
    """Canonical (leaf) type token of a raised/caught expression.

    Returns "" for non-type tokens — a bare re-raise, or a lowercase
    name (a re-raised *variable*, which PEP 8 distinguishes from the
    CapWords class names the lattice reasons about).
    """
    leaf = dotted.rsplit(".", 1)[-1]
    if not leaf or not leaf[:1].isupper():
        return ""
    return leaf


class TypeLattice:
    """Leaf-name subtype relation over builtin + project exceptions.

    ``project`` maps each project-defined exception leaf to its
    qualified name (for messages and taxonomy membership); unknown
    leaves are assumed to subclass ``Exception`` — a broad handler
    provably catches them, a narrow one provably does not.
    """

    def __init__(self, index: ProjectIndex) -> None:
        self.parents: Dict[str, Tuple[str, ...]] = {
            child: (parent,)
            for child, parent in BUILTIN_EXCEPTION_BASES.items()}
        self.parents["BaseException"] = ()
        self.project: Dict[str, str] = {}
        qualified: Dict[str, str] = {}
        for module in sorted(index.modules):
            info = index.modules[module]
            for qualname, cls in sorted(info.classes.items()):
                leaf = qualname.rsplit(".", 1)[-1]
                bases = tuple(t for t in (type_token(b)
                                          for b in cls.bases) if t)
                if not bases:
                    continue
                self.parents.setdefault(leaf, bases)
                qualified.setdefault(leaf, f"{module}.{qualname}")
        for leaf, name in qualified.items():
            if self.is_exception(leaf):
                self.project[leaf] = name

    def _ancestry(self, leaf: str, strict: bool = False) -> Set[str]:
        """All known supertypes of ``leaf``, including itself.

        Non-strict lookups assume an *unknown* leaf subclasses
        ``Exception`` (so ``except Exception`` catches it); strict
        lookups stop at unknown names, which is what positive claims
        like taxonomy membership require.
        """
        seen: Set[str] = set()
        frontier = [leaf]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            fallback: Tuple[str, ...] = ()
            if not strict and current != "BaseException":
                fallback = ("Exception",)
            frontier.extend(self.parents.get(current, fallback))
        return seen

    def is_subtype(self, sub: str, sup: str) -> bool:
        return sup in self._ancestry(sub)

    def is_exception(self, leaf: str) -> bool:
        """Provably reaches BaseException through *known* parents."""
        return "BaseException" in self._ancestry(leaf, strict=True)

    def is_taxonomy(self, leaf: str) -> bool:
        """A project-defined exception type (the hand-built taxonomy)."""
        return leaf in self.project

    def qualified(self, leaf: str) -> str:
        return self.project.get(leaf, leaf)

    def catches(self, spec: HandlerSpec, leaf: str) -> bool:
        """Does one except clause intercept an exception type?"""
        if not spec.types:
            return True  # bare except == except BaseException
        return any(self.is_subtype(leaf, type_token(t) or t)
                   for t in spec.types)


def propagate_types(types: Set[str], guards: Sequence[int],
                    function: FunctionInfo,
                    lattice: TypeLattice) -> Set[str]:
    """Filter raised types through the enclosing handlers of a site.

    ``guards`` are try indices innermost-first.  ``reraise`` handlers
    pass the type through; ``swallow`` / ``translate`` / ``raise``
    handlers absorb it (replacement raises inside handler bodies are
    recorded as their own raise facts, so nothing is lost).
    """
    out = set(types)
    for guard in guards:
        if not out:
            break
        handlers = function.try_facts[guard].handlers
        survivors: Set[str] = set()
        for leaf in out:
            spec = next((h for h in handlers
                         if lattice.catches(h, leaf)), None)
            if spec is None or spec.action == "reraise":
                survivors.add(leaf)
        out = survivors
    return out


@dataclass
class ExceptionSummary:
    """The converged escape set of one function."""

    key: str                          # "module.qualname"
    escapes: Set[str] = field(default_factory=set)


@dataclass
class ExceptionTable:
    """Every function's escape set."""

    summaries: Dict[str, ExceptionSummary] = field(default_factory=dict)

    def escapes(self, module: str, qualname: str) -> Set[str]:
        summary = self.summaries.get(f"{module}.{qualname}")
        return summary.escapes if summary is not None else set()


def _is_sys_exit(func: str) -> bool:
    return func in ("sys.exit", "os._exit") or func == "exit"


def resolve_call_guard(index: ProjectIndex, module: str,
                       info: ModuleInfo, qualname: str,
                       call: CallGuard) -> Optional[str]:
    """Summary key of the project function a guarded call resolves to.

    Mirrors the effect pass's callee resolution: local nested defs via
    the enclosing scope chain first, then imported / module-level
    names through the index.
    """
    if not call.func:
        return None
    if "." not in call.func:
        parts = qualname.split(".") if qualname else []
        while parts:
            candidate = ".".join(parts + [call.func])
            if candidate in info.functions:
                return f"{module}.{candidate}"
            parts.pop()
    probe = CallSite(func=call.func, lineno=call.lineno, col=call.col,
                     in_function=qualname)
    callee = index.resolve_call(module, probe)
    if callee is not None and callee.kind == "function":
        return f"{callee.module}.{callee.name}"
    return None


@dataclass(frozen=True)
class _Edge:
    caller: str                       # summary key
    callee: str                       # summary key
    guards: Tuple[int, ...]


def _build_table(index: ProjectIndex) -> ExceptionTable:
    lattice = type_lattice(index)
    table = ExceptionTable()
    functions: Dict[str, FunctionInfo] = {}
    edges: List[_Edge] = []

    for module in sorted(index.modules):
        info = index.modules[module]
        for qualname, function in info.functions.items():
            key = f"{module}.{qualname}"
            functions[key] = function
            summary = ExceptionSummary(key=key)
            for fact in function.raise_facts:
                leaf = type_token(fact.type_token)
                if not leaf:
                    continue
                summary.escapes |= propagate_types(
                    {leaf}, fact.guards, function, lattice)
            for call in function.call_guards:
                if _is_sys_exit(call.func):
                    summary.escapes |= propagate_types(
                        {"SystemExit"}, call.guards, function, lattice)
                    continue
                callee = resolve_call_guard(index, module, info,
                                            qualname, call)
                if callee is not None:
                    edges.append(_Edge(caller=key, callee=callee,
                                       guards=call.guards))
            table.summaries[key] = summary

    changed = True
    while changed:
        changed = False
        for edge in edges:
            caller = table.summaries.get(edge.caller)
            callee = table.summaries.get(edge.callee)
            if caller is None or callee is None or caller is callee:
                continue
            incoming = propagate_types(
                callee.escapes, edge.guards, functions[edge.caller],
                lattice)
            if not incoming <= caller.escapes:
                caller.escapes |= incoming
                changed = True
    return table


def arriving_at(index: ProjectIndex, table: ExceptionTable,
                module: str, info: ModuleInfo, qualname: str,
                try_index: int,
                lattice: TypeLattice) -> Tuple[Set[str], bool]:
    """(types reaching one try's handlers, whether all calls resolved).

    Unions every raise fact and resolved callee escape set anchored
    inside the try body, each filtered through the guards *inner* than
    ``try_index``.  ``all_resolved`` is False when any call in the
    region could not be resolved to a project function — the dead-
    catch rule only trusts a fully-resolved region.
    """
    function = info.functions[qualname]
    arrive: Set[str] = set()
    all_resolved = True
    for fact in function.raise_facts:
        if try_index not in fact.guards:
            continue
        leaf = type_token(fact.type_token)
        if not leaf:
            continue
        inner = fact.guards[:fact.guards.index(try_index)]
        arrive |= propagate_types({leaf}, inner, function, lattice)
    for call in function.call_guards:
        if try_index not in call.guards:
            continue
        inner = call.guards[:call.guards.index(try_index)]
        if _is_sys_exit(call.func):
            arrive |= propagate_types({"SystemExit"}, inner, function,
                                      lattice)
            continue
        callee = resolve_call_guard(index, module, info, qualname, call)
        if callee is None:
            all_resolved = False
            continue
        summary = table.summaries.get(callee)
        if summary is None:
            all_resolved = False
            continue
        arrive |= propagate_types(summary.escapes, inner, function,
                                  lattice)
    return arrive, all_resolved


def type_lattice(index: ProjectIndex) -> TypeLattice:
    """The (memoized) exception-type lattice for an index."""
    cached = getattr(index, "_type_lattice", None)
    if isinstance(cached, TypeLattice):
        return cached
    lattice = TypeLattice(index)
    setattr(index, "_type_lattice", lattice)
    return lattice


def exception_table(index: ProjectIndex) -> ExceptionTable:
    """The (memoized) exception table for an index."""
    cached = getattr(index, "_exception_table", None)
    if isinstance(cached, ExceptionTable):
        return cached
    table = _build_table(index)
    setattr(index, "_exception_table", table)
    return table
