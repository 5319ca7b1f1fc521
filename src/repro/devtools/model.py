"""The analyzer's data model.

The extractor (:mod:`.extract`) distills each parsed file into one
:class:`ModuleInfo` of plain value objects — imports, function
signatures, call sites and ``# repro: noqa`` waivers — and the index
(:mod:`.index`) collects them by module name.  The rules read only
this model, never an AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple


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


@dataclass(frozen=True)
class ParamInfo:
    """One declared parameter and its position."""

    name: str
    annotation: Optional[str] = None
    lineno: int = 0
    col: int = 0


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method and its signature.

    ``params`` excludes ``self``/``cls`` for methods.
    """

    qualname: str
    lineno: int
    params: Tuple[ParamInfo, ...] = ()


@dataclass(frozen=True)
class ModuleInfo:
    """Everything the analyzer knows about one source file."""

    module: str
    path: str
    imports: Tuple[ImportedName, ...] = ()
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    calls: Tuple[CallSite, ...] = ()
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return not rules or rule_id.upper() in rules
