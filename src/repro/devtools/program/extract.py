"""Per-file extraction: one parsed AST in, one :class:`ModuleInfo` out.

This is the only place the analyzer touches an AST.  Everything the
interprocedural rules need — imports with their laziness and
``TYPE_CHECKING`` status, function signatures, class constructor
shapes, call sites with argument descriptions, RNG-source names — is
distilled here into the JSON-serializable model, so the rest of the
package (and the on-disk cache) never re-parses source.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..context import package_parts, parse_noqa
from ..visitors import dotted_name, parameter_nodes, unit_suffix
from .model import (
    CallGuard,
    CallSite,
    ClassInfo,
    FunctionInfo,
    HandlerSpec,
    ImportedName,
    ModuleInfo,
    ParamInfo,
    RaiseFact,
    ResourceFact,
    TryFact,
    ValueDesc,
)

#: Callee leaves that produce an RNG object (sanctioned or not).
RNG_PRODUCERS = frozenset({
    "resolve_rng", "spawn", "derive", "default_rng", "RandomState"})

#: Callee leaves that hand back a resource needing cleanup when bound
#: (the R002 leak shape).
RESOURCE_PRODUCERS: Dict[str, str] = {
    "open": "open file handle",
    "memmap": "memmap",
    "open_memmap": "memmap",
    "SharedMemory": "SharedMemory segment",
    "NamedTemporaryFile": "open file handle",
    "TemporaryFile": "open file handle",
    "Pipe": "pipe",
}

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


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _leaf(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


def _free_names(node: ast.expr) -> Tuple[Set[str], Set[str]]:
    """(loaded names, dotted callees) inside an expression.

    Names bound by lambdas and comprehensions within the expression are
    excluded from the loaded set — they are not free.
    """
    loaded: Set[str] = set()
    bound: Set[str] = set()
    callees: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Load):
                loaded.add(child.id)
            else:
                bound.add(child.id)
        elif isinstance(child, ast.Lambda):
            for arg in parameter_nodes(child):  # type: ignore[arg-type]
                bound.add(arg.arg)
        elif isinstance(child, ast.Call):
            name = dotted_name(child.func)
            if name is not None:
                callees.add(name)
    return loaded - bound, callees


def _str_consts(node: ast.expr) -> Tuple[str, ...]:
    found = sorted({child.value for child in ast.walk(node)
                    if isinstance(child, ast.Constant)
                    and isinstance(child.value, str)})
    return tuple(found)


def describe_value(node: ast.expr) -> ValueDesc:
    """Build the :class:`ValueDesc` approximation of one expression."""
    names, callees = _free_names(node)
    names_t = tuple(sorted(names))
    calls_t = tuple(sorted(callees))
    consts_t = _str_consts(node)
    if isinstance(node, ast.Name):
        return ValueDesc(kind="name", text=node.id,
                         suffix=unit_suffix(node.id),
                         names=names_t, calls=calls_t)
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted is not None:
            return ValueDesc(kind="attr", text=dotted,
                             suffix=unit_suffix(_leaf(dotted)),
                             names=names_t, calls=calls_t)
        return ValueDesc(kind="other", names=names_t, calls=calls_t,
                         consts=consts_t)
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func) or ""
        return ValueDesc(kind="call", text=dotted,
                         names=names_t, calls=calls_t, consts=consts_t)
    if isinstance(node, ast.Lambda):
        return ValueDesc(kind="lambda", names=names_t, calls=calls_t,
                         consts=consts_t)
    if isinstance(node, ast.Constant):
        return ValueDesc(kind="const", text=repr(node.value),
                         consts=consts_t)
    return ValueDesc(kind="other", names=names_t, calls=calls_t,
                     consts=consts_t)


# -- exception-flow facts ----------------------------------------------------

#: ``try`` statement classes (``try*`` joined the AST in 3.11).
_TRY_NODES: Tuple[type, ...] = tuple(
    cls for cls in (getattr(ast, "Try", None),
                    getattr(ast, "TryStar", None)) if cls is not None)


def _walk_skipping_defs(nodes: Sequence[ast.AST]):
    """Depth-first walk that never descends into nested defs/lambdas."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _ExceptionFactsCollector:
    """Collect raise/handler/cleanup facts for one def body.

    Nested defs and classes are skipped (they collect their own
    facts).  The guard stack tracks which enclosing ``try`` statements
    would intercept an exception at the current position: pushed for a
    try *body* only — handler bodies, ``else`` and ``finally`` blocks
    are not protected by their own handlers, matching Python
    semantics.  A ``with SignalGuard()`` region raises the signal
    depth, marking calls whose ``sys.exit`` would bypass the deferred
    checkpoint-exit protocol.
    """

    def __init__(self) -> None:
        self.tries: List[TryFact] = []
        self.raises: List[RaiseFact] = []
        self.calls: List[CallGuard] = []
        self.resources: List[ResourceFact] = []
        self.returned: Set[str] = set()
        self._stack: List[int] = []     # try indices, outermost first
        self._loops = 0
        self._signal = 0

    def walk(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._statement(stmt)

    def _guards(self) -> Tuple[int, ...]:
        return tuple(reversed(self._stack))

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, _TRY_NODES):
            self._try(stmt)
            return
        if isinstance(stmt, ast.Raise):
            self._raise(stmt)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            for expr in _own_expressions(stmt):
                self._calls_in(expr)
            self._loops += 1
            self.walk(stmt.body)
            self.walk(stmt.orelse)
            self._loops -= 1
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                names, _ = _free_names(stmt.value)
                self.returned |= names
                self._calls_in(stmt.value)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._assign(stmt)
            return
        for expr in _own_expressions(stmt):
            self._calls_in(expr)
        for block in _nested_bodies(stmt):
            self.walk(block)

    def _try(self, stmt: ast.stmt) -> None:
        index = len(self.tries)
        handlers = tuple(self._handler(h)
                         for h in getattr(stmt, "handlers", []))
        self.tries.append(TryFact(
            lineno=stmt.lineno, col=stmt.col_offset,
            handlers=handlers,
            has_finally=bool(getattr(stmt, "finalbody", [])),
            in_loop=self._loops > 0, guards=self._guards()))
        if handlers:
            self._stack.append(index)
            self.walk(stmt.body)
            self._stack.pop()
        else:
            self.walk(stmt.body)
        # else runs after the body completed; finally and handler
        # bodies raise past this try's own handlers.
        self.walk(getattr(stmt, "orelse", []))
        for handler in getattr(stmt, "handlers", []):
            self.walk(handler.body)
        self.walk(getattr(stmt, "finalbody", []))

    def _handler(self, handler: ast.ExceptHandler) -> HandlerSpec:
        types: Tuple[str, ...] = ()
        if handler.type is not None:
            if isinstance(handler.type, ast.Tuple):
                types = tuple(t for t in (dotted_name(e) for e
                                          in handler.type.elts)
                              if t is not None)
            else:
                dotted = dotted_name(handler.type)
                types = (dotted,) if dotted is not None else ()
        action, target = self._handler_action(handler)
        uses_exc = False
        if handler.name:
            uses_exc = any(
                isinstance(node, ast.Name) and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
                for node in _walk_skipping_defs(handler.body))
        return HandlerSpec(types=types, action=action, target=target,
                           uses_exc=uses_exc, lineno=handler.lineno,
                           col=handler.col_offset)

    @staticmethod
    def _handler_action(
            handler: ast.ExceptHandler) -> Tuple[str, str]:
        """(action, target) of a handler body — see HandlerSpec."""
        first: Optional[Tuple[str, str]] = None
        for node in _walk_skipping_defs(handler.body):
            if not isinstance(node, ast.Raise):
                continue
            if node.exc is None:
                return "reraise", ""
            target = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            token = dotted_name(target) or ""
            chained = isinstance(node.cause, ast.Name) and \
                handler.name is not None and \
                node.cause.id == handler.name
            if chained:
                return "translate", token
            if first is None:
                first = ("raise", token)
        return first if first is not None else ("swallow", "")

    def _raise(self, stmt: ast.Raise) -> None:
        token = ""
        if stmt.exc is not None:
            target = stmt.exc.func if isinstance(stmt.exc, ast.Call) \
                else stmt.exc
            token = dotted_name(target) or ""
            self._calls_in(stmt.exc)
        from_name = stmt.cause.id \
            if isinstance(stmt.cause, ast.Name) else ""
        self.raises.append(RaiseFact(
            type_token=token, lineno=stmt.lineno, col=stmt.col_offset,
            guards=self._guards(), from_name=from_name))

    def _with(self, stmt: ast.stmt) -> None:
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        signal = False
        for item in stmt.items:
            expr = item.context_expr
            self._calls_in(expr)
            if not isinstance(expr, ast.Call):
                continue
            leaf = _leaf(dotted_name(expr.func) or "")
            if leaf == "SignalGuard":
                signal = True
            if leaf in RESOURCE_PRODUCERS and \
                    isinstance(item.optional_vars, ast.Name):
                self.resources.append(ResourceFact(
                    name=item.optional_vars.id,
                    kind=RESOURCE_PRODUCERS[leaf],
                    lineno=expr.lineno, col=expr.col_offset,
                    via_with=True))
        if signal:
            self._signal += 1
        self.walk(stmt.body)
        if signal:
            self._signal -= 1

    def _assign(self, stmt: ast.stmt) -> None:
        assert isinstance(stmt, (ast.Assign, ast.AnnAssign))
        value = stmt.value
        if value is None:
            return
        self._calls_in(value)
        target: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
        if isinstance(target, ast.Name) and isinstance(value, ast.Call):
            leaf = _leaf(dotted_name(value.func) or "")
            if leaf in RESOURCE_PRODUCERS:
                self.resources.append(ResourceFact(
                    name=target.id, kind=RESOURCE_PRODUCERS[leaf],
                    lineno=value.lineno, col=value.col_offset,
                    via_with=False))

    def _calls_in(self, expr: ast.expr) -> None:
        for node in _walk_skipping_defs([expr]):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None:
                    self.calls.append(CallGuard(
                        func=dotted, lineno=node.lineno,
                        col=node.col_offset, guards=self._guards(),
                        in_signal_guard=self._signal > 0))


def _exception_facts(node: ast.AST) -> Tuple[
        Tuple[TryFact, ...], Tuple[RaiseFact, ...],
        Tuple[CallGuard, ...], Tuple[ResourceFact, ...],
        Tuple[str, ...]]:
    """The exception-flow facts of one def body (nested defs skip)."""
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    collector = _ExceptionFactsCollector()
    collector.walk(node.body)
    return (tuple(collector.tries), tuple(collector.raises),
            tuple(sorted(collector.calls,
                         key=lambda c: (c.lineno, c.col, c.func))),
            tuple(collector.resources),
            tuple(sorted(collector.returned)))


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _annotation_is_classvar(node: ast.expr) -> bool:
    text = ast.unparse(node)
    return "ClassVar" in text


def _param_from_arg(arg: ast.arg,
                    default: Optional[ast.expr]) -> ParamInfo:
    annotation = ast.unparse(arg.annotation) if arg.annotation else None
    return ParamInfo(name=arg.arg, annotation=annotation,
                     has_default=default is not None,
                     default_is_none=_is_none(default))


def _signature_params(node: ast.AST, drop_self: bool) -> List[ParamInfo]:
    """Declared parameters with default alignment (excluding *args)."""
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = (
        [None] * (len(positional) - len(args.defaults))
        + list(args.defaults))
    params = [_param_from_arg(arg, default)
              for arg, default in zip(positional, defaults)]
    params.extend(_param_from_arg(arg, default)
                  for arg, default in zip(args.kwonlyargs,
                                          args.kw_defaults))
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
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._assignment(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt, type_checking)
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
        params = _signature_params(node, drop_self=in_class)
        rng_sources = {p.name for p in params
                       if p.name == "rng" or p.name.endswith("_rng")
                       or (p.annotation and "Generator" in p.annotation)}
        try_facts, raise_facts, call_guards, resource_facts, \
            returned_names = _exception_facts(node)
        self.functions[qualname] = FunctionInfo(
            qualname=qualname, lineno=node.lineno,
            params=tuple(params), is_method=in_class,
            rng_sources=tuple(sorted(rng_sources)),
            try_facts=try_facts, raise_facts=raise_facts,
            call_guards=call_guards, resource_facts=resource_facts,
            returned_names=returned_names)
        if not self._scope:
            self.bindings.setdefault(
                node.name, f"{self.module}.{node.name}")
        for decorator in node.decorator_list:
            self._expression(decorator)
        self._scope.append(node.name)
        self._function_depth += 1
        self.walk(node.body)
        self._function_depth -= 1
        self._scope.pop()
        self._finalize_function(qualname)

    def _finalize_function(self, qualname: str) -> None:
        """Fill call-derived facts once the body has been walked."""
        info = self.functions[qualname]
        prefix = qualname + "."
        sources = set(info.rng_sources)
        calls_resolve = False
        for call in self.calls:
            if call.in_function != qualname and \
                    not call.in_function.startswith(prefix):
                continue
            leaf = _leaf(call.func) if call.func else ""
            if leaf == "resolve_rng" and call.in_function == qualname:
                calls_resolve = True
            if leaf in RNG_PRODUCERS and call.bound_to:
                sources.add(call.bound_to)
        self.functions[qualname] = FunctionInfo(
            qualname=info.qualname, lineno=info.lineno,
            params=info.params, is_method=info.is_method,
            calls_resolve_rng=calls_resolve,
            rng_sources=tuple(sorted(sources)),
            try_facts=info.try_facts, raise_facts=info.raise_facts,
            call_guards=info.call_guards,
            resource_facts=info.resource_facts,
            returned_names=info.returned_names)

    def _class(self, node: ast.ClassDef) -> None:
        qualname = ".".join(self._scope + [node.name])
        is_dataclass = any(
            _leaf(dotted_name(d) or "") == "dataclass"
            or (isinstance(d, ast.Call)
                and _leaf(dotted_name(d.func) or "") == "dataclass")
            for d in node.decorator_list)
        if not self._scope:
            self.bindings.setdefault(
                node.name, f"{self.module}.{node.name}")
        bases = tuple(b for b in (dotted_name(base)
                                  for base in node.bases)
                      if b is not None)
        # Register before walking so methods see themselves as such.
        self.classes[qualname] = ClassInfo(
            name=qualname, lineno=node.lineno, is_dataclass=is_dataclass,
            bases=bases)
        fields: List[ParamInfo] = []
        for stmt in node.body:
            if is_dataclass and isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    not _annotation_is_classvar(stmt.annotation):
                fields.append(ParamInfo(
                    name=stmt.target.id,
                    annotation=ast.unparse(stmt.annotation),
                    has_default=stmt.value is not None,
                    default_is_none=_is_none(stmt.value)))
        for decorator in node.decorator_list:
            self._expression(decorator)
        self._scope.append(node.name)
        self.walk(node.body)
        self._scope.pop()
        methods = tuple(sorted(
            q for q in self.functions if q.startswith(qualname + ".")))
        if not is_dataclass:
            init = self.functions.get(f"{qualname}.__init__")
            fields = list(init.params) if init else []
        self.classes[qualname] = ClassInfo(
            name=qualname, lineno=node.lineno,
            is_dataclass=is_dataclass, fields=tuple(fields),
            methods=methods, bases=bases)

    # -- expressions & assignments -------------------------------------------

    def _assignment(self, stmt: ast.stmt) -> None:
        assert isinstance(stmt, (ast.Assign, ast.AnnAssign))
        value = stmt.value
        bound_to: Optional[str] = None
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                bound_to = stmt.targets[0].id
        elif isinstance(stmt.target, ast.Name):
            bound_to = stmt.target.id
        if value is None:
            return
        if isinstance(value, ast.Call):
            self._record_call(value, bound_to=bound_to)
            for arg_expr in _call_operands(value):
                self._expression(arg_expr)
        else:
            self._expression(value)

    def _with(self, stmt: ast.stmt, type_checking: bool) -> None:
        """``with open(p) as fh:`` binds ``fh`` like an assignment.

        The generic compound-statement walk would record the call but
        lose the binding, which the call-site rules read as
        ``bound_to``.
        """
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call) and \
                    isinstance(item.optional_vars, ast.Name):
                self._record_call(expr,
                                  bound_to=item.optional_vars.id)
                for operand in _call_operands(expr):
                    self._expression(operand)
            else:
                self._expression(expr)
        self.walk(stmt.body, type_checking)

    def _expression(self, expr: ast.expr) -> None:
        """Record every call expression nested anywhere in ``expr``."""
        for child in ast.walk(expr):
            if isinstance(child, ast.Call):
                self._record_call(child)

    def _record_call(self, node: ast.Call,
                     bound_to: Optional[str] = None) -> None:
        func = dotted_name(node.func) or ""
        args = tuple(describe_value(a) for a in node.args
                     if not isinstance(a, ast.Starred))
        keywords = tuple(
            (kw.arg or "**", describe_value(kw.value))
            for kw in node.keywords)
        self.calls.append(CallSite(
            func=func, lineno=node.lineno, col=node.col_offset,
            args=args, keywords=keywords, bound_to=bound_to,
            in_function=".".join(self._scope)))

def _call_operands(node: ast.Call) -> List[ast.expr]:
    operands: List[ast.expr] = []
    operands.extend(a.value if isinstance(a, ast.Starred) else a
                    for a in node.args)
    operands.extend(kw.value for kw in node.keywords)
    return operands


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
