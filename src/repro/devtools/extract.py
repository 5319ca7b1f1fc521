"""Per-file extraction: one parsed AST in, one :class:`ModuleInfo` out.

This is the only place the analyzer touches an AST.  Everything the
rules need — imports with their laziness and ``TYPE_CHECKING``
status, function signatures with annotated, positioned parameters,
class names, call sites with positioned argument descriptions,
``# repro: noqa`` waivers — is distilled here into the
JSON-serializable model, so the rest of the package (and the on-disk
cache) never re-parses source.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .model import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ImportedName,
    ModuleInfo,
    ParamInfo,
    ValueDesc,
)

#: Recognized unit suffixes, longest first so ``_mm`` wins over ``_m``
#: and ``_dbm`` over ``_m``.  These are the unit classes Table 1 and
#: the link budget juggle: absolute power (dBm), relative power (dB),
#: linear power (mW), length (m / mm), angle (mrad), voltage (V),
#: time (s), and rate (Hz).
UNIT_SUFFIXES: Tuple[str, ...] = (
    "_dbm", "_mrad", "_mm", "_mw", "_hz", "_db", "_m", "_v", "_s")

#: ``# repro: noqa`` or ``# repro: noqa[U001]`` / ``noqa [U001, T001]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[(?P<rules>[A-Z0-9,\s]+)\])?",
    re.IGNORECASE)


def unit_suffix(name: str) -> Optional[str]:
    """The unit suffix a name carries, or None.

    Requires the underscore form (``power_dbm``); a bare ``v`` or ``s``
    is a generic variable, not a unit annotation.
    """
    lowered = name.lower()
    for suffix in UNIT_SUFFIXES:
        if lowered.endswith(suffix) and len(lowered) > len(suffix):
            return suffix
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def parse_noqa(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule ids suppressed there.

    An empty frozenset means a bare ``# repro: noqa``: every rule on
    that line is suppressed.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = frozenset()
        else:
            suppressions[lineno] = frozenset(
                r.strip().upper() for r in rules.split(",") if r.strip())
    return suppressions


def package_parts(path: str) -> Tuple[str, ...]:
    """Path components used for rule scoping, rooted at ``repro``.

    ``src/repro/core/gma.py`` -> ``("repro", "core", "gma.py")``; a file
    outside the package (benchmarks, examples, fixtures) keeps its own
    components.  Fixture trees that embed a ``repro/...`` directory
    scope exactly like the real package, which is what the rule tests
    rely on.
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index:]
    return parts


def module_name_for(path: str) -> str:
    """Dotted module name for a file, rooted at the ``repro`` package.

    ``src/repro/optics/units.py`` -> ``repro.optics.units``; package
    ``__init__.py`` files name the package itself.  Files outside a
    ``repro`` tree (fixtures, benchmarks) use their own trailing
    components, so a fixture tree embedding ``repro/...`` indexes
    exactly like the real package.
    """
    parts = list(package_parts(path))
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf == "__init__.py":
        parts = parts[:-1]
    elif leaf.endswith(".py"):
        parts[-1] = leaf[:-3]
    return ".".join(parts)


def describe_value(node: ast.expr) -> ValueDesc:
    """Build the :class:`ValueDesc` approximation of one expression."""
    if isinstance(node, ast.Name):
        return ValueDesc(kind="name", text=node.id,
                         suffix=unit_suffix(node.id),
                         lineno=node.lineno, col=node.col_offset)
    return ValueDesc(kind="other", lineno=node.lineno,
                     col=node.col_offset)


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _param_from_arg(arg: ast.arg) -> ParamInfo:
    annotation = ast.unparse(arg.annotation) if arg.annotation else None
    return ParamInfo(name=arg.arg, annotation=annotation,
                     lineno=arg.lineno, col=arg.col_offset)


def _signature_params(node: ast.AST, drop_self: bool) -> List[ParamInfo]:
    """Declared parameters in order (excluding ``*args``/``**kw``)."""
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    params = [_param_from_arg(arg)
              for arg in [*args.posonlyargs, *args.args,
                          *args.kwonlyargs]]
    if drop_self and params and params[0].name in ("self", "cls"):
        params = params[1:]
    return params


class _ModuleExtractor:
    """Single pass over one module's AST, accumulating the model."""

    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.package = module  # adjusted by extract() for non-packages
        self.imports: List[ImportedName] = []
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: List[CallSite] = []
        self.bindings: Dict[str, str] = {}
        self._scope: List[str] = []        # enclosing def/class names
        self._function_depth = 0

    # -- statement walk ------------------------------------------------------

    def walk(self, stmts: Sequence[ast.stmt],
             type_checking: bool = False) -> None:
        for stmt in stmts:
            self._statement(stmt, type_checking)

    def _statement(self, stmt: ast.stmt, type_checking: bool) -> None:
        if isinstance(stmt, ast.Import):
            self._plain_import(stmt, type_checking)
        elif isinstance(stmt, ast.ImportFrom):
            self._from_import(stmt, type_checking)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function(stmt)
        elif isinstance(stmt, ast.ClassDef):
            self._class(stmt)
        elif isinstance(stmt, ast.If) and \
                _is_type_checking_test(stmt.test):
            self.walk(stmt.body, type_checking=True)
            self.walk(stmt.orelse, type_checking=type_checking)
        else:
            # Compound statements (if/for/while/with/try) may nest any
            # of the above; expressions inside carry the call sites.
            for child_stmts in _nested_bodies(stmt):
                self.walk(child_stmts, type_checking)
            for expr in _own_expressions(stmt):
                self._expression(expr)

    # -- imports -------------------------------------------------------------

    def _plain_import(self, stmt: ast.Import,
                      type_checking: bool) -> None:
        lazy = self._function_depth > 0
        for alias in stmt.names:
            if alias.asname:
                local, target = alias.asname, alias.name
            else:
                local = target = alias.name.split(".")[0]
            record = ImportedName(
                local=local, target=target, module=alias.name,
                lineno=stmt.lineno, lazy=lazy,
                type_checking=type_checking)
            self.imports.append(record)
            if not lazy:
                self.bindings.setdefault(local, target)

    def _from_import(self, stmt: ast.ImportFrom,
                     type_checking: bool) -> None:
        lazy = self._function_depth > 0
        base = self._resolve_relative(stmt.module, stmt.level)
        if base is None:
            return
        for alias in stmt.names:
            if alias.name == "*":
                record = ImportedName(
                    local="*", target=f"{base}.*", module=base,
                    lineno=stmt.lineno, lazy=lazy,
                    type_checking=type_checking)
                self.imports.append(record)
                continue
            local = alias.asname or alias.name
            record = ImportedName(
                local=local, target=f"{base}.{alias.name}", module=base,
                lineno=stmt.lineno, lazy=lazy,
                type_checking=type_checking)
            self.imports.append(record)
            if not lazy:
                self.bindings.setdefault(local, record.target)

    def _resolve_relative(self, module: Optional[str],
                          level: int) -> Optional[str]:
        if level == 0:
            return module
        anchor = self.package.split(".")
        drop = level - 1
        if drop:
            if drop >= len(anchor):
                return None
            anchor = anchor[:-drop]
        if module:
            anchor = anchor + module.split(".")
        return ".".join(anchor) if anchor else None

    # -- definitions ---------------------------------------------------------

    def _function(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        in_class = bool(self._scope) and self._scope[-1] in self.classes
        qualname = ".".join(self._scope + [node.name])
        self.functions[qualname] = FunctionInfo(
            qualname=qualname, lineno=node.lineno,
            params=tuple(_signature_params(node, drop_self=in_class)))
        if not self._scope:
            self.bindings.setdefault(
                node.name, f"{self.module}.{node.name}")
        # Decorators and defaults evaluate in the enclosing scope.
        args = node.args
        for expr in [*node.decorator_list, *args.defaults,
                     *(d for d in args.kw_defaults if d is not None)]:
            self._expression(expr)
        self._scope.append(node.name)
        self._function_depth += 1
        self.walk(node.body)
        self._function_depth -= 1
        self._scope.pop()

    def _class(self, node: ast.ClassDef) -> None:
        qualname = ".".join(self._scope + [node.name])
        if not self._scope:
            self.bindings.setdefault(
                node.name, f"{self.module}.{node.name}")
        # Register before walking so methods see themselves as such.
        self.classes[qualname] = ClassInfo(name=qualname,
                                           lineno=node.lineno)
        for expr in [*node.decorator_list, *node.bases,
                     *(k.value for k in node.keywords)]:
            self._expression(expr)
        self._scope.append(node.name)
        self.walk(node.body)
        self._scope.pop()

    # -- expressions ---------------------------------------------------------

    def _expression(self, expr: ast.expr) -> None:
        """Record every call expression nested anywhere in ``expr``."""
        for child in ast.walk(expr):
            if isinstance(child, ast.Call):
                self._record_call(child)

    def _record_call(self, node: ast.Call) -> None:
        func = dotted_name(node.func) or ""
        args = tuple(describe_value(a) for a in node.args
                     if not isinstance(a, ast.Starred))
        keywords = tuple(
            (kw.arg or "**", describe_value(kw.value))
            for kw in node.keywords)
        self.calls.append(CallSite(
            func=func, lineno=node.lineno, col=node.col_offset,
            args=args, keywords=keywords,
            in_function=".".join(self._scope)))


def _nested_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    bodies = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if block and isinstance(block[0], ast.stmt):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


def _own_expressions(stmt: ast.stmt) -> List[ast.expr]:
    """Expressions held directly by a statement (not via nested blocks)."""
    exprs = []
    for field_name, value in ast.iter_fields(stmt):
        if field_name in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.expr):
            exprs.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    exprs.append(item)
                elif isinstance(item, ast.withitem):
                    exprs.append(item.context_expr)
                    if item.optional_vars is not None:
                        exprs.append(item.optional_vars)
    return exprs


def extract_module(path: str, source: str, sha: str) -> ModuleInfo:
    """Parse and distill one file (raises ``SyntaxError`` unparsable)."""
    tree = ast.parse(source, filename=path)
    module = module_name_for(path)
    extractor = _ModuleExtractor(module, path)
    if not path.replace("\\", "/").endswith("__init__.py"):
        extractor.package = module.rsplit(".", 1)[0] \
            if "." in module else module
    extractor.walk(tree.body)
    return ModuleInfo(
        module=module, path=path, sha=sha,
        imports=tuple(extractor.imports),
        functions=extractor.functions,
        classes=extractor.classes,
        calls=tuple(extractor.calls),
        bindings=extractor.bindings,
        suppressions=parse_noqa(source))
