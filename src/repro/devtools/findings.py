"""The analyzer's output unit: one finding per rule violation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the file as given to the engine (kept relative when the
    input was relative, so output is stable across machines); ``line``
    and ``column`` are 1-based, matching editors and compilers.
    """

    path: str
    line: int
    column: int
    rule_id: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule_id)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-reporter encoding of this finding."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "message": self.message,
        }

    def render(self) -> str:
        """The text-reporter encoding: ``path:line:col RULE message``."""
        return (f"{self.path}:{self.line}:{self.column} "
                f"{self.rule_id} {self.message}")
