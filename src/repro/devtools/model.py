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
INDEX_SCHEMA_VERSION = 8


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
    """A static description of one argument expression.

    ``kind`` is ``name`` for a plain name, else ``other``; ``text`` is
    the name and ``suffix`` its unit suffix, if any.  ``lineno`` /
    ``col`` locate the expression (where U001 anchors a keyword
    cross-assignment).
    """

    kind: str
    text: str = ""
    suffix: Optional[str] = None
    lineno: int = 0
    col: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "text": self.text, "suffix": self.suffix,
            "lineno": self.lineno, "col": self.col,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ValueDesc":
        return cls(kind=payload["kind"], text=payload["text"],
                   suffix=payload["suffix"],
                   lineno=payload["lineno"], col=payload["col"])


@dataclass(frozen=True)
class CallSite:
    """One call expression, with per-argument descriptions.

    ``in_function`` is the qualified name of the enclosing function
    ("" at module level).
    """

    func: str
    lineno: int
    col: int
    args: Tuple[ValueDesc, ...] = ()
    keywords: Tuple[Tuple[str, ValueDesc], ...] = ()
    in_function: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "func": self.func, "lineno": self.lineno, "col": self.col,
            "args": [a.to_dict() for a in self.args],
            "keywords": [[name, value.to_dict()]
                         for name, value in self.keywords],
            "in_function": self.in_function,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CallSite":
        return cls(
            func=payload["func"], lineno=payload["lineno"],
            col=payload["col"],
            args=tuple(ValueDesc.from_dict(a) for a in payload["args"]),
            keywords=tuple((name, ValueDesc.from_dict(value))
                           for name, value in payload["keywords"]),
            in_function=payload["in_function"])


@dataclass(frozen=True)
class ParamInfo:
    """One declared parameter and its position."""

    name: str
    annotation: Optional[str] = None
    lineno: int = 0
    col: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "annotation": self.annotation,
            "lineno": self.lineno, "col": self.col,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ParamInfo":
        return cls(name=payload["name"], annotation=payload["annotation"],
                   lineno=payload["lineno"], col=payload["col"])


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method and its signature.

    ``params`` excludes ``self``/``cls`` for methods.
    """

    qualname: str
    lineno: int
    params: Tuple[ParamInfo, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname, "lineno": self.lineno,
            "params": [p.to_dict() for p in self.params],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FunctionInfo":
        return cls(
            qualname=payload["qualname"], lineno=payload["lineno"],
            params=tuple(ParamInfo.from_dict(p)
                         for p in payload["params"]))


@dataclass(frozen=True)
class ClassInfo:
    """One class definition (what a call to its name resolves to)."""

    name: str
    lineno: int

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "lineno": self.lineno}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClassInfo":
        return cls(name=payload["name"], lineno=payload["lineno"])


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
