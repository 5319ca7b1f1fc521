"""The project index: every module under the given paths, parsed once.

:func:`build_index` reads and extracts each ``.py`` file into a
:class:`~.model.ModuleInfo`, keyed by dotted module name, and records
files that fail to parse instead of aborting.  Nothing is read from or
written to disk beyond the source files themselves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .extract import extract_module
from .model import ModuleInfo

#: Directories never descended into.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".mypy_cache", ".ruff_cache",
    ".pytest_cache", ".hypothesis", "node_modules",
})


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises ``FileNotFoundError`` for a path that does not exist --
    analyzing nothing because of a typo must not report success.
    """
    collected = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if path.is_file():
            collected.append(str(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in _SKIP_DIRS)
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    collected.append(os.path.join(dirpath, filename))
    return sorted(collected)


@dataclass
class ProjectIndex:
    """All modules by dotted name, plus the files that failed to parse."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    syntax_errors: Tuple[Tuple[str, int, str], ...] = ()


def build_index(paths: Sequence[str]) -> ProjectIndex:
    """Parse every ``.py`` file under ``paths`` into a ProjectIndex.

    Files that fail to parse are recorded as ``syntax_errors`` (path,
    line, message) instead of aborting the whole build.  Two files that
    map to one dotted module name raise ``ValueError``: keeping either
    would silently drop the other's findings.
    """
    index = ProjectIndex()
    errors = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            info = extract_module(filename, source)
        except SyntaxError as exc:
            errors.append((filename, exc.lineno or 1,
                           exc.msg or "syntax error"))
            continue
        clash = index.modules.get(info.module)
        if clash is not None and \
                os.path.realpath(clash.path) != os.path.realpath(filename):
            raise ValueError(
                f"module {info.module} is defined by both {clash.path} "
                f"and {filename}; analyze them in separate runs")
        index.modules[info.module] = info
    index.syntax_errors = tuple(errors)
    return index
