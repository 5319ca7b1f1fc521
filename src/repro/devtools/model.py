"""The project index's data model.

Everything here is a plain, JSON-round-trippable value object: the
extractor (:mod:`.extract`) produces one :class:`ModuleInfo` per file,
the index (:mod:`.index`) assembles them and resolves names across
modules, and the on-disk cache stores the serialized form keyed by
content hash.  Keeping the model free of live AST nodes is what makes
the cache possible — a warm run never re-parses an unchanged file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

#: Bump when the extracted shape changes; stale caches are discarded.
INDEX_SCHEMA_VERSION = 7


@dataclass(frozen=True)
class ImportedName:
    """One name bound by an import statement.

    ``local`` is the binding in the importing module, ``target`` the
    fully qualified symbol it refers to, and ``module`` the imported
    module itself (``target`` and ``module`` coincide for plain
    ``import x`` / ``from .. import pkg`` forms).
    """

    local: str
    target: str
    module: str
    lineno: int
    lazy: bool = False
    type_checking: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "local": self.local, "target": self.target,
            "module": self.module, "lineno": self.lineno,
            "lazy": self.lazy, "type_checking": self.type_checking,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ImportedName":
        return cls(local=payload["local"], target=payload["target"],
                   module=payload["module"], lineno=payload["lineno"],
                   lazy=payload["lazy"],
                   type_checking=payload["type_checking"])


@dataclass(frozen=True)
class ValueDesc:
    """A static description of one argument / assignment expression.

    ``kind`` is one of ``name`` / ``attr`` / ``call`` / ``lambda`` /
    ``const`` / ``other``; ``text`` is the dotted name (for names and
    attributes) or the dotted callee (for calls).  ``suffix`` is the
    unit suffix of the leaf name, if any.  ``names`` collects every
    plain name loaded anywhere inside the expression (minus
    comprehension and lambda-bound targets), ``calls`` every dotted
    callee, and ``consts`` every string literal (how the crash-safety
    rules recognize tmp siblings and journal paths) — the
    approximation the RNG-taint rules match against.  ``lineno`` /
    ``col`` locate the expression (where U001 anchors a keyword
    cross-assignment).
    """

    kind: str
    text: str = ""
    suffix: Optional[str] = None
    names: Tuple[str, ...] = ()
    calls: Tuple[str, ...] = ()
    consts: Tuple[str, ...] = ()
    lineno: int = 0
    col: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "text": self.text, "suffix": self.suffix,
            "names": list(self.names), "calls": list(self.calls),
            "consts": list(self.consts), "lineno": self.lineno,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ValueDesc":
        return cls(kind=payload["kind"], text=payload["text"],
                   suffix=payload["suffix"],
                   names=tuple(payload["names"]),
                   calls=tuple(payload["calls"]),
                   consts=tuple(payload["consts"]),
                   lineno=payload["lineno"], col=payload["col"])


@dataclass(frozen=True)
class CallSite:
    """One call expression, with per-argument descriptions.

    ``bound_to`` is the simple assignment target when the call's result
    is bound directly (``rng = resolve_rng(seed)``), which is how the
    RNG-taint rules track generator names.  ``in_function`` is the qualified name of
    the enclosing function ("" at module level).
    """

    func: str
    lineno: int
    col: int
    args: Tuple[ValueDesc, ...] = ()
    keywords: Tuple[Tuple[str, ValueDesc], ...] = ()
    bound_to: Optional[str] = None
    in_function: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "func": self.func, "lineno": self.lineno, "col": self.col,
            "args": [a.to_dict() for a in self.args],
            "keywords": [[name, value.to_dict()]
                         for name, value in self.keywords],
            "bound_to": self.bound_to, "in_function": self.in_function,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CallSite":
        return cls(
            func=payload["func"], lineno=payload["lineno"],
            col=payload["col"],
            args=tuple(ValueDesc.from_dict(a) for a in payload["args"]),
            keywords=tuple((name, ValueDesc.from_dict(value))
                           for name, value in payload["keywords"]),
            bound_to=payload["bound_to"],
            in_function=payload["in_function"])


@dataclass(frozen=True)
class HandlerSpec:
    """One ``except`` clause: what it catches and what it does.

    ``types`` are the caught type tokens (empty for a bare ``except``,
    which catches ``BaseException``).  ``action`` classifies the body:
    ``"reraise"`` (a bare ``raise``), ``"translate"`` (``raise X(...)
    from exc`` where ``exc`` is the bound name), ``"raise"`` (a new
    exception raised without chaining), or ``"swallow"`` (no raise at
    all — the handler absorbs the exception).  ``target`` is the raised
    type token for translate/raise.  ``uses_exc`` records whether the
    bound exception variable is loaded anywhere in the body — a handler
    that logs, records, or inspects the exception is handling it, not
    dropping it on the floor.
    """

    types: Tuple[str, ...] = ()
    action: str = "swallow"
    target: str = ""
    uses_exc: bool = False
    lineno: int = 0
    col: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "types": list(self.types), "action": self.action,
            "target": self.target, "uses_exc": self.uses_exc,
            "lineno": self.lineno, "col": self.col,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HandlerSpec":
        return cls(types=tuple(payload["types"]),
                   action=payload["action"], target=payload["target"],
                   uses_exc=payload["uses_exc"],
                   lineno=payload["lineno"], col=payload["col"])


@dataclass(frozen=True)
class TryFact:
    """One ``try`` statement inside a function body.

    ``guards`` are the indices (into the same function's ``try_facts``)
    of the *enclosing* try statements whose handlers would intercept an
    exception escaping this one, innermost first.
    """

    lineno: int
    col: int
    handlers: Tuple[HandlerSpec, ...] = ()
    has_finally: bool = False
    guards: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lineno": self.lineno, "col": self.col,
            "handlers": [h.to_dict() for h in self.handlers],
            "has_finally": self.has_finally,
            "guards": list(self.guards),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TryFact":
        return cls(lineno=payload["lineno"], col=payload["col"],
                   handlers=tuple(HandlerSpec.from_dict(h)
                                  for h in payload["handlers"]),
                   has_finally=payload["has_finally"],
                   guards=tuple(payload["guards"]))


@dataclass(frozen=True)
class RaiseFact:
    """One ``raise`` statement (outside handler bodies).

    ``type_token`` is the dotted name of the raised type ("" for a bare
    re-raise), ``from_name`` the chained cause variable of ``raise X
    from e``, and ``guards`` the enclosing try indices whose handlers
    would intercept it, innermost first.
    """

    type_token: str
    lineno: int
    col: int
    guards: Tuple[int, ...] = ()
    from_name: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type_token": self.type_token, "lineno": self.lineno,
            "col": self.col, "guards": list(self.guards),
            "from_name": self.from_name,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RaiseFact":
        return cls(type_token=payload["type_token"],
                   lineno=payload["lineno"], col=payload["col"],
                   guards=tuple(payload["guards"]),
                   from_name=payload["from_name"])


@dataclass(frozen=True)
class CallGuard:
    """One call site with its exception-handling context.

    The per-call-site ``guards`` (enclosing try indices, innermost
    first) are what lets the escape-set fixpoint subtract caught types
    exactly where a callee is invoked.
    """

    func: str
    lineno: int
    col: int
    guards: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "func": self.func, "lineno": self.lineno, "col": self.col,
            "guards": list(self.guards),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CallGuard":
        return cls(func=payload["func"], lineno=payload["lineno"],
                   col=payload["col"], guards=tuple(payload["guards"]))


@dataclass(frozen=True)
class ParamInfo:
    """One declared parameter (or dataclass field) and its position."""

    name: str
    annotation: Optional[str] = None
    has_default: bool = False
    default_is_none: bool = False
    lineno: int = 0
    col: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "annotation": self.annotation,
            "has_default": self.has_default,
            "default_is_none": self.default_is_none,
            "lineno": self.lineno, "col": self.col,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ParamInfo":
        return cls(name=payload["name"], annotation=payload["annotation"],
                   has_default=payload["has_default"],
                   default_is_none=payload["default_is_none"],
                   lineno=payload["lineno"], col=payload["col"])


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method, with the facts the rules consume.

    ``params`` excludes ``self``/``cls`` for methods.  ``rng_sources``
    lists local names known to hold an RNG (parameters named ``rng`` /
    ``*_rng`` or annotated ``Generator``, and names assigned from
    ``resolve_rng`` / ``spawn`` / ``derive`` / ``default_rng`` calls).

    ``try_facts`` / ``raise_facts`` / ``call_guards`` are the raw
    exception-flow facts (nested defs excluded) the escape-set
    inference consumes.
    """

    qualname: str
    lineno: int
    params: Tuple[ParamInfo, ...] = ()
    is_method: bool = False
    calls_resolve_rng: bool = False
    rng_sources: Tuple[str, ...] = ()
    try_facts: Tuple[TryFact, ...] = ()
    raise_facts: Tuple[RaiseFact, ...] = ()
    call_guards: Tuple[CallGuard, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname, "lineno": self.lineno,
            "params": [p.to_dict() for p in self.params],
            "is_method": self.is_method,
            "calls_resolve_rng": self.calls_resolve_rng,
            "rng_sources": list(self.rng_sources),
            "try_facts": [t.to_dict() for t in self.try_facts],
            "raise_facts": [r.to_dict() for r in self.raise_facts],
            "call_guards": [c.to_dict() for c in self.call_guards],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FunctionInfo":
        return cls(
            qualname=payload["qualname"], lineno=payload["lineno"],
            params=tuple(ParamInfo.from_dict(p)
                         for p in payload["params"]),
            is_method=payload["is_method"],
            calls_resolve_rng=payload["calls_resolve_rng"],
            rng_sources=tuple(payload["rng_sources"]),
            try_facts=tuple(TryFact.from_dict(t)
                            for t in payload["try_facts"]),
            raise_facts=tuple(RaiseFact.from_dict(r)
                              for r in payload["raise_facts"]),
            call_guards=tuple(CallGuard.from_dict(c)
                              for c in payload["call_guards"]))


@dataclass(frozen=True)
class ClassInfo:
    """One class: constructor shape plus method roster.

    ``fields`` holds the synthesized constructor parameters — dataclass
    fields in declaration order when ``is_dataclass``, else the
    ``__init__`` parameters.  ``bases`` are the dotted base-class
    names as written — what the exception type lattice resolves to
    decide subtype relations between taxonomy errors.
    """

    name: str
    lineno: int
    is_dataclass: bool = False
    fields: Tuple[ParamInfo, ...] = ()
    methods: Tuple[str, ...] = ()
    bases: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "lineno": self.lineno,
            "is_dataclass": self.is_dataclass,
            "fields": [f.to_dict() for f in self.fields],
            "methods": list(self.methods),
            "bases": list(self.bases),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClassInfo":
        return cls(
            name=payload["name"], lineno=payload["lineno"],
            is_dataclass=payload["is_dataclass"],
            fields=tuple(ParamInfo.from_dict(f)
                         for f in payload["fields"]),
            methods=tuple(payload["methods"]),
            bases=tuple(payload["bases"]))


@dataclass(frozen=True)
class ModuleInfo:
    """Everything the analyzer knows about one source file."""

    module: str
    path: str
    sha: str
    imports: Tuple[ImportedName, ...] = ()
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    calls: Tuple[CallSite, ...] = ()
    bindings: Dict[str, str] = field(default_factory=dict)
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return not rules or rule_id.upper() in rules

    def to_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module, "path": self.path, "sha": self.sha,
            "imports": [i.to_dict() for i in self.imports],
            "functions": {q: f.to_dict()
                          for q, f in sorted(self.functions.items())},
            "classes": {n: c.to_dict()
                        for n, c in sorted(self.classes.items())},
            "calls": [c.to_dict() for c in self.calls],
            "bindings": dict(sorted(self.bindings.items())),
            "suppressions": {str(line): sorted(rules)
                             for line, rules
                             in sorted(self.suppressions.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModuleInfo":
        return cls(
            module=payload["module"], path=payload["path"],
            sha=payload["sha"],
            imports=tuple(ImportedName.from_dict(i)
                          for i in payload["imports"]),
            functions={q: FunctionInfo.from_dict(f)
                       for q, f in payload["functions"].items()},
            classes={n: ClassInfo.from_dict(c)
                     for n, c in payload["classes"].items()},
            calls=tuple(CallSite.from_dict(c) for c in payload["calls"]),
            bindings=dict(payload["bindings"]),
            suppressions={int(line): frozenset(rules)
                          for line, rules
                          in payload["suppressions"].items()})
