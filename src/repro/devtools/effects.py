"""Interprocedural effect inference over the resolved call graph.

Every function in the index gets a conservative :class:`EffectSummary`
— does it write files (and to what kind of path), rename, fsync — and
the summaries are propagated to a fixpoint along two edge kinds:

* **call edges** (caller → resolved callee): a caller inherits its
  callee's effects.  Writes whose destination is a callee *parameter*
  are substituted at each call site: an argument that is itself a tmp
  path is proven safe, an argument that is the caller's own parameter
  re-parameterizes the write one level up, and anything else becomes a
  *published* write attributed at the call site.  This is how
  ``_write_meta(path, ...)`` — a raw ``open(path, "w")`` — is proven
  harmless: every caller hands it a hidden ``.tmp`` directory.
* **containment edges** (enclosing function → nested def): defining a
  closure is treated as potentially executing it.

The crash-safety rules (:mod:`.rules_crashsafety`) consume the write /
rename / fsync events, and E001 reuses :func:`resolve_worker` to find
the callable a pool call runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .index import ProjectIndex
from .model import (
    CallSite,
    FunctionInfo,
    ModuleInfo,
    ValueDesc,
)

#: ``np.save``-family leaves: a whole-file write to their path arg.
_NP_WRITE_LEAVES = frozenset({
    "save", "savez", "savez_compressed", "savetxt"})

#: Substrings marking a path expression as a tmp/scratch sibling.
_TMP_TOKENS = ("tmp", "temp", "scratch")

#: The one module sanctioned to do raw write→fsync→rename plumbing.
ATOMIC_MODULE = "repro.store.atomic"


@dataclass(frozen=True)
class WriteEvent:
    """One file-write (or rename) anchored at a source location.

    ``scope`` is ``"tmp"`` (destination inside a tmp→rename scope),
    ``"published"`` (a path a reader could observe), or ``"param:<p>"``
    (destination is the enclosing function's parameter ``p`` — resolved
    at call sites during propagation).  ``via`` names the anchor, with
    ``→`` marking writes inherited through a callee.  ``mode`` is
    ``"w"`` for truncating/creating writes, ``"a"`` for appends and
    ``"u"`` for in-place updates (``r+`` modes) — only ``"w"`` events
    are non-atomic *publication* (W001); the others still count as
    journal/manifest mutations (W003).
    """

    module: str
    lineno: int
    col: int
    via: str
    scope: str
    detail: str
    mode: str = "w"


@dataclass(frozen=True)
class RenameEvent:
    """One ``os.replace``-style publish rename."""

    module: str
    lineno: int
    col: int
    detail: str


@dataclass
class EffectSummary:
    """Conservative effects of one function (direct + propagated)."""

    key: str                          # "module.qualname"
    writes_any: bool = False
    fsyncs: bool = False
    renames: Tuple[RenameEvent, ...] = ()
    param_writes: Set[Tuple[str, str]] = field(default_factory=set)


@dataclass
class EffectTable:
    """The full program's effect summaries plus derived write events.

    ``published_writes`` holds every write whose destination is a path
    a reader could observe: direct anchors plus the ones derived by
    resolving a callee's parameter-scoped write at a call site.
    """

    summaries: Dict[str, EffectSummary] = field(default_factory=dict)
    published_writes: Tuple[WriteEvent, ...] = ()
    journal_events: Tuple[WriteEvent, ...] = ()


# -- location helpers --------------------------------------------------------


def _leaf(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


def owner_of(info: ModuleInfo, scope: str) -> str:
    """Innermost enclosing *function* qualname of a scope string.

    ``in_function`` may name a class body or a nested non-function
    scope; walk outward until an actual function is found ("" for
    module level).
    """
    parts = scope.split(".") if scope else []
    while parts:
        qualname = ".".join(parts)
        if qualname in info.functions:
            return qualname
        parts.pop()
    return ""


def resolve_worker(index: ProjectIndex, module: str, call: CallSite,
                   desc: ValueDesc
                   ) -> Optional[Tuple[str, str, FunctionInfo]]:
    """Resolve a callable argument to a project function.

    Handles nested defs in the enclosing scope chain (closures passed
    as workers), module-level functions, and imported names — returns
    ``(module, qualname, FunctionInfo)`` or None for lambdas, partials
    and anything outside the index.
    """
    if desc.kind not in ("name", "attr") or not desc.text:
        return None
    info = index.modules.get(module)
    if info is None:
        return None
    if desc.kind == "name":
        parts = call.in_function.split(".") if call.in_function else []
        while parts:
            qualname = ".".join(parts + [desc.text])
            if qualname in info.functions:
                return module, qualname, info.functions[qualname]
            parts.pop()
        if desc.text in info.functions:
            return module, desc.text, info.functions[desc.text]
    probe = CallSite(func=desc.text, lineno=call.lineno, col=call.col)
    callee = index.resolve_call(module, probe)
    if callee is not None and callee.kind == "function" and \
            callee.function is not None:
        return callee.module, callee.name, callee.function
    return None


# -- path classification -----------------------------------------------------


def _is_tmpish(text: str, names: Sequence[str],
               consts: Sequence[str]) -> bool:
    blob = " ".join([text, *names, *consts]).lower()
    return any(token in blob for token in _TMP_TOKENS)


def classify_path(desc: ValueDesc,
                  params: Sequence[str]) -> Tuple[str, str]:
    """(scope, detail) of a path expression inside a function.

    Tmp tokens win over parameters: ``path + ".tmp"`` is a tmp sibling
    even when ``path`` is a parameter — this is how W001 "sees"
    tmp→rename scopes.
    """
    detail = desc.text or (desc.consts[0] if desc.consts
                           else (desc.names[0] if desc.names else
                                 desc.kind))
    if _is_tmpish(desc.text, desc.names, desc.consts):
        return "tmp", detail
    root = desc.text.split(".")[0] if desc.text else ""
    if root in params:
        return f"param:{root}", detail
    for name in desc.names:
        if name in params:
            return f"param:{name}", detail
    return "published", detail


def _classify_receiver(receiver: str,
                       params: Sequence[str]) -> Tuple[str, str]:
    """Like :func:`classify_path` for a dotted method receiver."""
    if _is_tmpish(receiver, (), ()):
        return "tmp", receiver
    if receiver.split(".")[0] in params:
        return f"param:{receiver.split('.')[0]}", receiver
    return "published", receiver


def _argument(call: CallSite, position: int,
              keyword: Optional[str]) -> Optional[ValueDesc]:
    if 0 <= position < len(call.args):
        return call.args[position]
    if keyword is not None:
        for name, value in call.keywords:
            if name == keyword:
                return value
    return None


def _const_text(desc: Optional[ValueDesc]) -> Optional[str]:
    if desc is None or desc.kind != "const":
        return None
    text = desc.text
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0]:
        return text[1:-1]
    return None


def _open_mode(call: CallSite, position: int) -> Optional[str]:
    """The constant mode string of an ``open`` call, if knowable."""
    desc = _argument(call, position, "mode")
    if desc is None:
        return "r"  # open() defaults to reading
    return _const_text(desc)


# -- direct fact extraction --------------------------------------------------


def _direct_write(call: CallSite,
                  params: Sequence[str]) -> Optional[WriteEvent]:
    """The write event a single call site anchors, if any."""
    if not call.func:
        return None
    leaf = _leaf(call.func)
    root = call.func.split(".")[0]
    if leaf == "open":
        if call.func == "open":
            path, mode = _argument(call, 0, "file"), _open_mode(call, 1)
            if path is None or mode is None:
                return None
            scope, detail = classify_path(path, params)
        else:
            receiver = call.func[:-len(".open")]
            mode = _open_mode(call, 0)
            if mode is None:
                return None
            scope, detail = _classify_receiver(receiver, params)
        if mode.startswith("r") and "+" not in mode:
            return None
        if mode.startswith("a"):
            kind = "a"
        elif "+" in mode and not mode.startswith(("w", "x")):
            kind = "u"
        else:
            kind = "w"
        return WriteEvent(module="", lineno=call.lineno, col=call.col,
                          via=call.func, scope=scope, detail=detail,
                          mode=kind)
    if root in ("np", "numpy") and leaf in _NP_WRITE_LEAVES:
        path = _argument(call, 0, "file")
        if path is None:
            return None
        scope, detail = classify_path(path, params)
        return WriteEvent(module="", lineno=call.lineno, col=call.col,
                          via=call.func, scope=scope, detail=detail)
    if leaf in ("write_text", "write_bytes") and "." in call.func:
        receiver = call.func[:-(len(leaf) + 1)]
        scope, detail = _classify_receiver(receiver, params)
        return WriteEvent(module="", lineno=call.lineno, col=call.col,
                          via=call.func, scope=scope, detail=detail)
    return None


def _direct_rename(call: CallSite) -> Optional[RenameEvent]:
    if not call.func:
        return None
    leaf = _leaf(call.func)
    root = call.func.split(".")[0]
    if root in ("os", "shutil") and leaf in ("replace", "rename",
                                             "move"):
        dst = _argument(call, 1, "dst")
        detail = (dst.text or "...") if dst is not None else "..."
        return RenameEvent(module="", lineno=call.lineno, col=call.col,
                           detail=detail)
    # Path.replace / Path.rename take exactly one argument;
    # str.replace takes two — the arity disambiguates them.
    if leaf in ("replace", "rename") and "." in call.func and \
            len(call.args) == 1 and not call.keywords:
        return RenameEvent(module="", lineno=call.lineno, col=call.col,
                           detail=call.args[0].text or "...")
    return None


@dataclass(frozen=True)
class _CallEdge:
    caller: str                      # summary key
    callee: str                      # summary key
    module: str                      # caller's module
    call: Optional[CallSite]         # None for containment edges


def _build_table(index: ProjectIndex) -> EffectTable:
    table = EffectTable()
    edges: List[_CallEdge] = []
    published: Dict[Tuple[str, int, int, str], WriteEvent] = {}
    journalish: List[WriteEvent] = []

    # Pass 1: per-function direct facts.
    for module in sorted(index.modules):
        info = index.modules[module]
        for qualname in info.functions:
            key = f"{module}.{qualname}"
            table.summaries[key] = EffectSummary(key=key)
        # Containment: defining a nested function is conservatively
        # treated as executing it.
        for qualname in info.functions:
            if "." not in qualname:
                continue
            outer = owner_of(info, qualname.rsplit(".", 1)[0])
            if outer:
                edges.append(_CallEdge(
                    caller=f"{module}.{outer}",
                    callee=f"{module}.{qualname}",
                    module=module, call=None))

        params_of: Dict[str, Tuple[str, ...]] = {
            qualname: tuple(p.name for p in function.params)
            for qualname, function in info.functions.items()}
        for call in info.calls:
            owner = owner_of(info, call.in_function)
            params = params_of.get(owner, ())
            key = f"{module}.{owner}" if owner else ""
            summary = table.summaries.get(key)
            leaf = _leaf(call.func) if call.func else ""

            write = _direct_write(call, params)
            if write is not None:
                write = WriteEvent(
                    module=module, lineno=write.lineno, col=write.col,
                    via=write.via, scope=write.scope,
                    detail=write.detail, mode=write.mode)
                if _mentions_journal(call, write):
                    journalish.append(write)
                if write.scope == "published":
                    published.setdefault(
                        (module, write.lineno, write.col, write.via),
                        write)
                if summary is not None:
                    summary.writes_any = True
                    if write.scope.startswith("param:"):
                        summary.param_writes.add(
                            (write.scope[len("param:"):], write.via))

            rename = _direct_rename(call)
            if rename is not None and summary is not None:
                summary.renames += (RenameEvent(
                    module=module, lineno=rename.lineno,
                    col=rename.col, detail=rename.detail),)
            if rename is not None and _mentions_journal(call, None):
                journalish.append(WriteEvent(
                    module=module, lineno=call.lineno, col=call.col,
                    via=call.func, scope="published",
                    detail=rename.detail, mode="w"))

            if summary is not None and leaf == "fsync":
                summary.fsyncs = True

            # Call edge to a resolvable project function: imported /
            # module-level names via the index, local nested defs via
            # the enclosing scope chain.
            if not owner or not call.func:
                continue
            callee_key = _callee_key(index, module, info, call)
            if callee_key is not None:
                edges.append(_CallEdge(
                    caller=f"{module}.{owner}", callee=callee_key,
                    module=module, call=call))

    # Pass 2: fixpoint propagation.
    changed = True
    while changed:
        changed = False
        for edge in edges:
            caller = table.summaries.get(edge.caller)
            callee = table.summaries.get(edge.callee)
            if caller is None or callee is None or caller is callee:
                continue
            changed |= _merge_booleans(caller, callee)
            if edge.call is None:
                # Containment: a nested def's param-scoped writes are
                # its own; they do not re-parameterize the outer fn.
                continue
            changed |= _substitute_param_writes(
                index, table, edge, caller, callee, published)

    table.published_writes = tuple(sorted(
        published.values(),
        key=lambda w: (w.module, w.lineno, w.col, w.via)))
    table.journal_events = tuple(sorted(
        journalish,
        key=lambda w: (w.module, w.lineno, w.col, w.via)))
    return table


def _merge_booleans(caller: EffectSummary,
                    callee: EffectSummary) -> bool:
    changed = False
    for attr in ("writes_any", "fsyncs"):
        if getattr(callee, attr) and not getattr(caller, attr):
            setattr(caller, attr, True)
            changed = True
    return changed


def _callee_key(index: ProjectIndex, module: str, info: ModuleInfo,
                call: CallSite) -> Optional[str]:
    if "." not in call.func:
        parts = call.in_function.split(".") if call.in_function else []
        while parts:
            qualname = ".".join(parts + [call.func])
            if qualname in info.functions:
                return f"{module}.{qualname}"
            parts.pop()
    callee = index.resolve_call(module, call)
    if callee is not None and callee.kind == "function":
        return f"{callee.module}.{callee.name}"
    return None


def _substitute_param_writes(
        index: ProjectIndex, table: EffectTable, edge: _CallEdge,
        caller: EffectSummary, callee: EffectSummary,
        published: Dict[Tuple[str, int, int, str], WriteEvent]) -> bool:
    """Resolve a callee's param-scoped writes at one call site."""
    if not callee.param_writes or edge.call is None:
        return False
    function = _lookup_function(index, edge.callee)
    if function is None:
        return False
    param_names = [p.name for p in function.params]
    caller_info = index.modules[edge.module]
    owner = owner_of(caller_info, edge.call.in_function)
    caller_params: Tuple[str, ...] = ()
    if owner and owner in caller_info.functions:
        caller_params = tuple(
            p.name for p in caller_info.functions[owner].params)
    changed = False
    for param, via in sorted(callee.param_writes):
        desc = None
        if param in param_names:
            desc = _argument(edge.call, param_names.index(param), param)
        if desc is None:
            continue  # defaulted or unmatchable: stays callee-scoped
        scope, detail = classify_path(desc, caller_params)
        derived_via = f"{_leaf(edge.call.func)} → {via}"
        if scope == "tmp":
            continue
        if scope.startswith("param:"):
            pair = (scope[len("param:"):], derived_via)
            if pair not in caller.param_writes:
                caller.param_writes.add(pair)
                changed = True
        else:
            event_key = (edge.module, edge.call.lineno, edge.call.col,
                         derived_via)
            if event_key not in published:
                published[event_key] = WriteEvent(
                    module=edge.module, lineno=edge.call.lineno,
                    col=edge.call.col, via=derived_via,
                    scope="published", detail=detail)
                changed = True
    return changed


def _lookup_function(index: ProjectIndex,
                     key: str) -> Optional[FunctionInfo]:
    for module, info in index.modules.items():
        if key.startswith(module + "."):
            qualname = key[len(module) + 1:]
            if qualname in info.functions:
                return info.functions[qualname]
    return None


def _mentions_journal(call: CallSite,
                      write: Optional[WriteEvent]) -> bool:
    """Does this call's path expression name a journal or manifest?"""
    blobs: List[str] = [call.func or ""]
    for desc in call.args[:2]:
        blobs.append(desc.text)
        blobs.extend(desc.names)
        blobs.extend(desc.consts)
    for _, desc in call.keywords:
        blobs.append(desc.text)
        blobs.extend(desc.consts)
    if write is not None:
        blobs.append(write.detail)
    blob = " ".join(blobs).lower()
    return "journal" in blob or "manifest" in blob


def effect_table(index: ProjectIndex) -> EffectTable:
    """The (memoized) effect table for an index."""
    cached = getattr(index, "_effect_table", None)
    if isinstance(cached, EffectTable):
        return cached
    table = _build_table(index)
    setattr(index, "_effect_table", table)
    return table
