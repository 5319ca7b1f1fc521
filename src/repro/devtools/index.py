"""The project index: every module parsed once, names resolved across
files, and an on-disk cache keyed by content hash.

Building the index is the analyzer's only expensive step (parsing and
walking ~100 ASTs), so :func:`build_index` can run against a cache
file: each source file's extracted :class:`ModuleInfo` is stored under
its SHA-256, and a warm run deserializes unchanged files instead of
re-extracting them.  The cache is a plain JSON file — safe to delete
at any time, keyed by content rather than mtime so it survives
checkouts and CI cache restores.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .extract import extract_module
from .model import (
    INDEX_SCHEMA_VERSION,
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
)

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"
_CACHE_FILENAME = "program-index.json"

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


@dataclass(frozen=True)
class ResolvedCallee:
    """What a call site's dotted name resolved to."""

    module: str
    name: str                       # qualified display name
    kind: str                       # "function" | "class"
    function: Optional[FunctionInfo] = None
    klass: Optional[ClassInfo] = None

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ProjectIndex:
    """All modules plus cross-module name resolution."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    from_cache: int = 0
    extracted: int = 0
    syntax_errors: Tuple[Tuple[str, int, str], ...] = ()
    cache_entries: Dict[str, Dict[str, object]] = \
        field(default_factory=dict, repr=False, compare=False)
    _call_cache: Dict[Tuple[str, str], Optional["ResolvedCallee"]] = \
        field(default_factory=dict, repr=False, compare=False)

    # -- name resolution -----------------------------------------------------

    def resolve_symbol(self, symbol: str,
                       _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Follow re-export chains until ``symbol`` names a definition.

        ``repro.link.FsoChannel`` -> ``repro.link.channel.FsoChannel``
        when the package ``__init__`` merely re-exports it.  Returns
        None for symbols outside the index (numpy, stdlib) or broken
        chains.
        """
        seen = _seen if _seen is not None else set()
        if symbol in seen:
            return None
        seen.add(symbol)
        module, attrs = self._split_module(symbol)
        if module is None:
            return None
        if not attrs:
            return symbol  # the symbol is a module itself
        info = self.modules[module]
        name = ".".join(attrs)
        if name in info.functions or name in info.classes:
            return symbol  # defined right here
        head, rest = attrs[0], attrs[1:]
        target = info.bindings.get(head)
        if target is None or target == f"{module}.{head}":
            return None  # unknown name, or a local non-def binding
        resolved_head = self.resolve_symbol(target, seen)
        if resolved_head is None:
            return None
        if rest:
            return self.resolve_symbol(
                ".".join([resolved_head] + list(rest)), seen)
        return resolved_head

    def _split_module(self, symbol: str
                      ) -> Tuple[Optional[str], Tuple[str, ...]]:
        """Longest module prefix of a dotted symbol, plus the rest."""
        parts = symbol.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate, tuple(parts[cut:])
        return None, ()

    def lookup(self, symbol: str) -> Optional[ResolvedCallee]:
        """The definition a fully resolved symbol points at, if any."""
        resolved = self.resolve_symbol(symbol)
        if resolved is None:
            return None
        module, attrs = self._split_module(resolved)
        if module is None or not attrs:
            return None
        info = self.modules[module]
        name = ".".join(attrs)
        if name in info.classes:
            return ResolvedCallee(module=module, name=name, kind="class",
                                  klass=info.classes[name])
        if name in info.functions:
            return ResolvedCallee(module=module, name=name,
                                  kind="function",
                                  function=info.functions[name])
        return None

    def resolve_call(self, module: str,
                     call: CallSite) -> Optional[ResolvedCallee]:
        """Resolve a call site's dotted callee to a project definition.

        Handles plain names, imported names, re-exports, and
        ``ClassName.method`` / ``module.attr`` chains.  Attribute calls
        on instances (``self.tracker.report``) are out of scope and
        resolve to None.
        """
        if not call.func or module not in self.modules:
            return None
        key = (module, call.func)
        if key in self._call_cache:
            return self._call_cache[key]
        callee = self._resolve_call_uncached(module, call)
        self._call_cache[key] = callee
        return callee

    def _resolve_call_uncached(self, module: str,
                               call: CallSite
                               ) -> Optional[ResolvedCallee]:
        parts = call.func.split(".")
        head = parts[0]
        if head in ("self", "cls"):
            return None
        info = self.modules[module]
        target = info.bindings.get(head)
        if target is None:
            # A method calling a sibling defined in the same class
            # cannot be seen here; only module-level names resolve.
            return None
        symbol = ".".join([target] + parts[1:])
        callee = self.lookup(symbol)
        if callee is not None or len(parts) == 1:
            return callee
        return None

    def constructor_params(self, callee: ResolvedCallee
                           ) -> Tuple[Tuple[str, ...], ResolvedCallee]:
        """Parameter names a call to ``callee`` binds, in order."""
        if callee.kind == "function" and callee.function is not None:
            return (tuple(p.name for p in callee.function.params),
                    callee)
        if callee.kind == "class" and callee.klass is not None:
            return tuple(p.name for p in callee.klass.fields), callee
        return (), callee


def file_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _cache_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, _CACHE_FILENAME)


def load_cache(cache_dir: str) -> Dict[str, object]:
    """The full cache payload ({} for a missing/invalid/stale file).

    The payload holds a ``files`` section ({path: {sha, module}}) and,
    once an analysis has run to completion, a ``results`` section (the
    findings of the last run, keyed by a content hash of every input —
    see :func:`repro.devtools.analyzer.analyze_paths`).
    """
    try:
        with open(_cache_path(cache_dir), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) or \
            payload.get("version") != INDEX_SCHEMA_VERSION:
        return {}
    if not isinstance(payload.get("files"), dict):
        payload["files"] = {}
    return payload


def save_cache(cache_dir: str, payload: Dict[str, object]) -> None:
    """Atomically persist the cache payload (best effort)."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
        path = _cache_path(cache_dir)
        tmp = path + ".tmp"
        payload = dict(payload, version=INDEX_SCHEMA_VERSION)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        pass  # a read-only checkout must not break analysis


def build_index(paths: Sequence[str],
                cached_files: Optional[Dict[str, Dict[str, object]]] = None
                ) -> ProjectIndex:
    """Parse every ``.py`` file under ``paths`` into a ProjectIndex.

    ``cached_files`` is the ``files`` section of a loaded cache
    ({path: {sha, module}}): a file whose content hash matches its
    entry is deserialized instead of re-extracted.  Files that fail to
    parse are recorded as ``syntax_errors`` (path, line, message)
    instead of aborting the whole build.
    """
    cached = cached_files or {}
    index = ProjectIndex()
    errors = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        sha = file_sha(source)
        entry = cached.get(filename)
        if entry is not None and entry.get("sha") == sha:
            info = ModuleInfo.from_dict(entry["module"])  # type: ignore[arg-type]
            index.from_cache += 1
        else:
            try:
                info = extract_module(filename, source, sha)
            except SyntaxError as exc:
                errors.append((filename, exc.lineno or 1,
                               exc.msg or "syntax error"))
                continue
            index.extracted += 1
            entry = {"sha": sha, "module": info.to_dict()}
        index.cache_entries[filename] = entry
        index.modules[info.module] = info
    index.syntax_errors = tuple(errors)
    return index
