"""Rule base class, registry, and ``--select`` / ``--ignore`` resolution.

Every rule runs over the :class:`~.index.ProjectIndex`: the layering
rules (``L``) read its import graph, and the RNG (``T001``) and unit
(``U``) rules read the call sites and signatures extraction recorded.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Type

from .findings import Finding
from .index import ProjectIndex
from .model import ModuleInfo

_REGISTRY: Dict[str, "Rule"] = {}


class Rule:
    """One rule: an id, a rationale, and a ``check`` pass.

    ``check`` receives the whole project index and yields findings
    anchored in whichever module they occur; the analyzer applies
    per-line ``# repro: noqa`` suppression afterwards.
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


def register_rule(rule_class: Type[Rule]
                          ) -> Type[Rule]:
    """Class decorator adding a rule to the registry."""
    rule = rule_class()
    if not rule.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return rule_class


def _load_rules() -> None:
    # Importing the rule modules populates the registry.
    from . import (  # noqa: F401
        rules_layering,
        rules_rngflow,
        rules_units,
    )


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    _load_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def resolve_selection(
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """Apply flake8-style ``--select`` / ``--ignore`` prefix lists.

    Entries match by prefix, case-insensitively, so ``T`` selects every
    RNG-provenance rule and ``T001`` exactly one.  Unknown entries
    (matching no registered rule) and a ``select`` with no entries
    (``""``, ``","``) raise ``ValueError`` so a typo fails loudly
    instead of silently analyzing nothing.
    """
    rules = all_rules()

    def expand(entries: Iterable[str]) -> List[str]:
        prefixes = []
        for entry in entries:
            prefix = entry.strip().upper()
            if not prefix:
                continue
            if not any(r.rule_id.startswith(prefix) for r in rules):
                raise ValueError(f"unknown rule or prefix: {prefix}")
            prefixes.append(prefix)
        return prefixes

    selected = rules
    if select is not None:
        prefixes = expand(select)
        if not prefixes:
            raise ValueError("empty rule selection")
        selected = [r for r in rules
                    if any(r.rule_id.startswith(p) for p in prefixes)]
    if ignore is not None:
        prefixes = expand(ignore)
        selected = [r for r in selected
                    if not any(r.rule_id.startswith(p) for p in prefixes)]
    return selected
