"""Whole-program rule base class and registry.

Mirrors :mod:`repro.devtools.registry` but for rules that run over the
:class:`~.index.ProjectIndex` instead of a single file's AST.  The
``--select`` / ``--ignore`` prefix semantics are shared with the
per-file linter via :func:`repro.devtools.registry.apply_selection`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Type

from ..findings import Finding
from ..registry import apply_selection
from .index import ProjectIndex
from .model import ModuleInfo

_PROGRAM_REGISTRY: Dict[str, "ProgramRule"] = {}


class ProgramRule:
    """One interprocedural rule: an id, a rationale, a ``check`` pass.

    ``check`` receives the whole project index and yields findings
    anchored in whichever module they occur; the analyzer applies
    per-line ``# repro: noqa`` suppression afterwards, exactly like the
    per-file engine.
    """

    rule_id: str = ""
    summary: str = ""

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, info: ModuleInfo, line: int, column: int,
                message: str) -> Finding:
        """Build a finding in ``info``'s file (column to 1-based)."""
        return Finding(path=info.path, line=line, column=column + 1,
                       rule_id=self.rule_id, message=message)


def register_program_rule(rule_class: Type[ProgramRule]
                          ) -> Type[ProgramRule]:
    """Class decorator adding a program rule to the registry."""
    rule = rule_class()
    if not rule.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule.rule_id in _PROGRAM_REGISTRY:
        raise ValueError(f"duplicate program rule id {rule.rule_id}")
    _PROGRAM_REGISTRY[rule.rule_id] = rule
    return rule_class


def _load_program_rules() -> None:
    # Importing the rule modules populates the registry.
    from . import (  # noqa: F401
        rules_crashsafety,
        rules_exceptions,
        rules_layering,
        rules_rngflow,
        rules_unitflow,
    )


def all_program_rules() -> List[ProgramRule]:
    """Every registered program rule, ordered by id."""
    _load_program_rules()
    return [_PROGRAM_REGISTRY[rule_id]
            for rule_id in sorted(_PROGRAM_REGISTRY)]


def resolve_program_selection(
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None) -> List[ProgramRule]:
    """``--select`` / ``--ignore`` over the program rules."""
    return apply_selection(all_program_rules(), select=select,
                           ignore=ignore)
