"""Interprocedural array-semantics inference over the call graph.

Every function's raw :class:`~.model.ArrayOp` facts (extracted once
per file in :mod:`.extract`) are abstractly evaluated into a small
shape/dtype lattice: an :class:`ArrayValue` tracks the per-dimension
shape expressions when they are statically concrete, the dtype (with
whether it was *declared* via an explicit ``dtype=`` / annotation or
merely defaulted), and a symbolic *origin* (``param:x`` while a value
is shape-identical to the parameter ``x`` — elementwise ops preserve
it, reductions and constructors clear it).  Return summaries are
propagated to a fixpoint along resolved call edges exactly as
:mod:`.effects` propagates effect summaries, so a call into a helper
that returns its (elementwise-scaled) argument keeps the caller's
shape knowledge alive.

A final emission pass replays every function with the converged return
table and records :class:`ArrayEvent` facts — implicit-dtype
allocations, silent promotions, bool arithmetic, in-loop allocation,
vectorizable Python loops, call-site broadcast conflicts, trace-tensor
axis-order violations, and unit-suffix return-shape breaks — which the
S / Y / P rule families turn into findings.  The finished table is
persisted in the analyzer's content-hash cache behind
``ARRAYS_SCHEMA_VERSION`` so a warm run skips the whole pass.
:data:`HOT_MODULES` names the modules the Y/P rules police.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .effects import owner_of
from .index import ProjectIndex, ResolvedCallee, file_sha
from .model import (
    INDEX_SCHEMA_VERSION,
    ArrayOp,
    CallSite,
    FunctionInfo,
    ModuleInfo,
)

#: Bump when the lattice shape or inference semantics change.
ARRAYS_SCHEMA_VERSION = 1

#: Allocation leaves that must carry an explicit ``dtype=`` (Y002).
DTYPE_REQUIRED_LEAVES = frozenset({"empty", "zeros", "ones", "full"})

#: The batch engines and stores whose hot path the Y/P rules police.
HOT_MODULES = frozenset({
    "repro.motion.batch", "repro.simulate.batch",
    "repro.store.columnar"})

#: Arithmetic operators / ufunc leaves (promote dtypes, Y001/Y003).
_ARITH_FUNCS = frozenset({
    "+", "-", "*", "/", "//", "%", "**", "@",
    "add", "subtract", "multiply", "divide", "true_divide",
    "floor_divide", "power", "mod"})

#: Axis-op leaves that preserve the input shape (scans, not reductions).
_SHAPE_PRESERVING_AXIS = frozenset({
    "cumsum", "cumprod", "sort", "lfilter"})

#: Axis-op leaves whose result dtype is always floating.
_FLOAT_RESULT_AXIS = frozenset({
    "mean", "std", "var", "median", "nanmean", "norm", "percentile",
    "quantile"})

_DTYPE_ORDER = {"bool": 0, "int8": 1, "int16": 2, "int32": 3,
                "uint8": 1, "uint16": 2, "uint32": 3, "uint64": 4,
                "int64": 4, "float32": 5, "float64": 6}


def _leaf(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class ArrayValue:
    """One point in the shape/dtype lattice.

    ``dims`` is the per-dimension shape expression tuple when
    statically concrete (None = unknown), ``dtype`` the canonical
    dtype token ("?" = unknown).  ``origin`` is ``param:<name>`` while
    the value is provably shape-identical to that parameter;
    ``built`` marks a shape constructed by the function itself
    (allocation, stack, reshape) rather than derived elementwise; and
    ``declared`` marks a dtype the author wrote down explicitly.
    """

    dims: Optional[Tuple[str, ...]] = None
    dtype: str = "?"
    origin: str = ""
    built: bool = False
    declared: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dims": list(self.dims) if self.dims is not None else None,
            "dtype": self.dtype, "origin": self.origin,
            "built": self.built, "declared": self.declared,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArrayValue":
        dims = payload["dims"]
        return cls(dims=tuple(dims) if dims is not None else None,
                   dtype=payload["dtype"], origin=payload["origin"],
                   built=payload["built"],
                   declared=payload["declared"])


@dataclass(frozen=True)
class ArrayEvent:
    """One rule-relevant array fact anchored at a source location.

    ``kind`` is one of ``implicit-dtype`` (Y002), ``promotion``
    (Y001), ``bool-arith`` (Y003), ``loop-alloc`` (P001),
    ``python-loop`` (P002), ``broadcast`` (S001), ``axis-order``
    (S002) and ``return-shape`` (S003); ``detail`` carries the
    pre-formatted specifics the finding message embeds.
    """

    kind: str
    module: str
    lineno: int
    col: int
    function: str
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "module": self.module,
                "lineno": self.lineno, "col": self.col,
                "function": self.function, "detail": self.detail}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArrayEvent":
        return cls(kind=payload["kind"], module=payload["module"],
                   lineno=payload["lineno"], col=payload["col"],
                   function=payload["function"],
                   detail=payload["detail"])


@dataclass
class ArraySummary:
    """Converged array facts of one function."""

    key: str                                # "module.qualname"
    ret: Optional[ArrayValue] = None
    combines: Tuple[Tuple[str, str], ...] = ()
    array_params: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "ret": self.ret.to_dict() if self.ret is not None else None,
            "combines": [list(pair) for pair in self.combines],
            "array_params": list(self.array_params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArraySummary":
        ret = payload["ret"]
        return cls(
            key=payload["key"],
            ret=ArrayValue.from_dict(ret) if ret is not None else None,
            combines=tuple((pair[0], pair[1])
                           for pair in payload["combines"]),
            array_params=tuple(payload["array_params"]))


@dataclass
class ArrayTable:
    """The whole program's array summaries plus derived events."""

    summaries: Dict[str, ArraySummary] = field(default_factory=dict)
    events: Tuple[ArrayEvent, ...] = ()
    from_cache: bool = False

    def summary(self, module: str,
                qualname: str) -> Optional[ArraySummary]:
        return self.summaries.get(f"{module}.{qualname}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "summaries": {key: summary.to_dict() for key, summary
                          in sorted(self.summaries.items())},
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArrayTable":
        return cls(
            summaries={key: ArraySummary.from_dict(s)
                       for key, s in payload["summaries"].items()},
            events=tuple(ArrayEvent.from_dict(e)
                         for e in payload["events"]),
            from_cache=True)


def arrays_key(index: ProjectIndex) -> str:
    """Content hash the cached array table is valid for."""
    shas = sorted((info.path, info.sha)
                  for info in index.modules.values())
    return file_sha(repr((INDEX_SCHEMA_VERSION, ARRAYS_SCHEMA_VERSION,
                          shas)))


def project_callee(index: ProjectIndex, module: str, info: ModuleInfo,
                   call: CallSite) -> Optional[ResolvedCallee]:
    """Resolve a call to a project definition, nested defs included."""
    if not call.func:
        return None
    if "." not in call.func:
        parts = call.in_function.split(".") if call.in_function else []
        while parts:
            qualname = ".".join(parts + [call.func])
            if qualname in info.functions:
                return ResolvedCallee(
                    module=module, name=qualname, kind="function",
                    function=info.functions[qualname])
            parts.pop()
    return index.resolve_call(module, call)


# -- the lattice -------------------------------------------------------------


def _promote(*dtypes: str) -> str:
    known = [d for d in dtypes if d in _DTYPE_ORDER]
    if not known:
        return "?"
    return max(known, key=lambda d: _DTYPE_ORDER[d])


def _broadcast_dims(a: Optional[Tuple[str, ...]],
                    b: Optional[Tuple[str, ...]]
                    ) -> Tuple[Optional[Tuple[str, ...]], bool]:
    """(merged dims, conflict) of two operand shapes, right-aligned."""
    if a is None or b is None:
        return (a if b is None else b), False
    merged: List[str] = []
    conflict = False
    for offset in range(max(len(a), len(b))):
        dim_a = a[-1 - offset] if offset < len(a) else "1"
        dim_b = b[-1 - offset] if offset < len(b) else "1"
        if dim_a == dim_b:
            merged.append(dim_a)
        elif dim_a == "1":
            merged.append(dim_b)
        elif dim_b == "1":
            merged.append(dim_a)
        elif dim_a.isdigit() and dim_b.isdigit():
            conflict = True
            merged.append(dim_a)
        else:
            merged.append("?")
    return tuple(reversed(merged)), conflict


def broadcast_conflict(a: Tuple[str, ...], b: Tuple[str, ...]) -> bool:
    """Are two concrete shapes statically broadcast-incompatible?"""
    _, conflict = _broadcast_dims(a, b)
    return conflict


_ANNOTATION_TOKENS = ("ndarray", "ArrayLike", "memmap")


def _param_value(name: str,
                 annotation: Optional[str]) -> Optional[ArrayValue]:
    ann = annotation or ""
    if not any(token in ann for token in _ANNOTATION_TOKENS):
        return None
    dtype = "?"
    for token in ("float64", "float32", "int64", "int32", "bool"):
        if token in ann:
            dtype = token
            break
    return ArrayValue(dims=None, dtype=dtype, origin=f"param:{name}",
                      built=False, declared=dtype != "?")


def _merge_returns(values: Sequence[Optional[ArrayValue]]
                   ) -> Optional[ArrayValue]:
    known = [value for value in values if value is not None]
    if not known or len(known) != len(values):
        return None
    first = known[0]
    if all(value == first for value in known[1:]):
        return first
    dims = first.dims if all(v.dims == first.dims for v in known) \
        else None
    dtype = first.dtype if all(v.dtype == first.dtype for v in known) \
        else "?"
    origin = first.origin \
        if all(v.origin == first.origin for v in known) else ""
    return ArrayValue(dims=dims, dtype=dtype, origin=origin,
                      built=all(v.built for v in known),
                      declared=all(v.declared for v in known))


# -- abstract evaluation -----------------------------------------------------


class _Evaluator:
    """Replay one function's ops + calls in source order."""

    def __init__(self, index: ProjectIndex, module: str,
                 info: ModuleInfo, qualname: str,
                 function: FunctionInfo,
                 rets: Mapping[str, Optional[ArrayValue]],
                 events: Optional[List[ArrayEvent]],
                 combines: Mapping[str, Tuple[Tuple[str, str], ...]]
                 ) -> None:
        self.index = index
        self.module = module
        self.info = info
        self.qualname = qualname
        self.function = function
        self.rets = rets
        self.events = events
        self.combines = combines
        self.env: Dict[str, ArrayValue] = {}
        self.ret_values: List[Optional[ArrayValue]] = []

    def run(self) -> Optional[ArrayValue]:
        for param in self.function.params:
            value = _param_value(param.name, param.annotation)
            if value is not None:
                self.env[param.name] = value
        items: List[Tuple[int, int, int, object]] = [
            (op.lineno, op.col, 0, op)
            for op in self.function.array_ops]
        prefix = self.qualname + "."
        for call in self.info.calls:
            if call.in_function != self.qualname and \
                    not call.in_function.startswith(prefix):
                continue
            if owner_of(self.info, call.in_function) != self.qualname:
                continue
            items.append((call.lineno, call.col, 1, call))
        items.sort(key=lambda item: (item[0], item[1], item[2]))
        for _, _, tag, item in items:
            if tag == 0:
                assert isinstance(item, ArrayOp)
                self._op(item)
            else:
                assert isinstance(item, CallSite)
                self._call(item)
        return _merge_returns(self.ret_values) \
            if self.ret_values else None

    # -- helpers -------------------------------------------------------------

    def _emit(self, kind: str, lineno: int, col: int,
              detail: str) -> None:
        if self.events is not None:
            self.events.append(ArrayEvent(
                kind=kind, module=self.module, lineno=lineno, col=col,
                function=self.qualname, detail=detail))

    def _bind(self, bound: Optional[str],
              value: Optional[ArrayValue]) -> None:
        if bound is None:
            return
        if bound == "<ret>":
            self.ret_values.append(value)
        elif value is None:
            self.env.pop(bound, None)
        else:
            self.env[bound] = value

    def _operand_values(self, op: ArrayOp
                        ) -> Tuple[List[Tuple[str, ArrayValue]],
                                   List[Tuple[str, ArrayValue]]]:
        """(plain operand values, subscripted operand values) known."""
        plain = [(name, self.env[name]) for name in op.operands
                 if name in self.env]
        subs = [(name, self.env[name]) for name in op.subs
                if name in self.env]
        return plain, subs

    # -- op semantics --------------------------------------------------------

    def _op(self, op: ArrayOp) -> None:
        handler = {
            "kill": self._op_kill, "name": self._op_name,
            "alloc": self._op_alloc, "alloc_like": self._op_alloc_like,
            "cast": self._op_cast, "convert": self._op_convert,
            "copy": self._op_copy, "view": self._op_view,
            "concat": self._op_concat, "ufunc": self._op_ufunc,
            "axis": self._op_axis, "iter": self._op_iter,
        }.get(op.kind)
        if handler is not None:
            handler(op)

    def _op_kill(self, op: ArrayOp) -> None:
        self._bind(op.bound_to, None)

    def _op_name(self, op: ArrayOp) -> None:
        value = self.env.get(op.operands[0]) if op.operands else None
        self._bind(op.bound_to, value)

    def _op_alloc(self, op: ArrayOp) -> None:
        leaf = _leaf(op.func)
        implicit_default = leaf in DTYPE_REQUIRED_LEAVES
        needs_dtype = implicit_default or \
            (leaf == "array" and op.detail == "literal")
        if needs_dtype and op.dtype is None:
            target = f" bound to {op.bound_to!r}" if op.bound_to and \
                op.bound_to != "<ret>" else ""
            self._emit("implicit-dtype", op.lineno, op.col,
                       f"{op.func}(...){target}")
        if op.loop_depth > 0:
            self._emit("loop-alloc", op.lineno, op.col,
                       f"{op.func}(...) at loop depth {op.loop_depth}")
        dtype = op.dtype or ("float64" if implicit_default else "?")
        self._bind(op.bound_to, ArrayValue(
            dims=op.dims, dtype=dtype, origin="", built=True,
            declared=op.dtype is not None))

    def _op_alloc_like(self, op: ArrayOp) -> None:
        if op.loop_depth > 0:
            self._emit("loop-alloc", op.lineno, op.col,
                       f"{op.func}(...) at loop depth {op.loop_depth}")
        plain, subs = self._operand_values(op)
        base = plain[0][1] if plain else (subs[0][1] if subs else None)
        dims = plain[0][1].dims if plain else None
        self._bind(op.bound_to, ArrayValue(
            dims=dims,
            dtype=op.dtype or (base.dtype if base else "?"),
            origin=plain[0][1].origin if plain else "", built=False,
            declared=op.dtype is not None or
            (base.declared if base else False)))

    def _op_cast(self, op: ArrayOp) -> None:
        plain, subs = self._operand_values(op)
        base = plain[0][1] if plain else (subs[0][1] if subs else None)
        self._bind(op.bound_to, ArrayValue(
            dims=plain[0][1].dims if plain else None,
            dtype=op.dtype or "?",
            origin=plain[0][1].origin if plain else "",
            built=base.built if base else False, declared=True))

    def _op_convert(self, op: ArrayOp) -> None:
        plain, subs = self._operand_values(op)
        base = plain[0][1] if plain else (subs[0][1] if subs else None)
        if base is None:
            self._bind(op.bound_to, ArrayValue(
                dims=None, dtype=op.dtype or "?", origin="",
                built=False, declared=op.dtype is not None))
            return
        self._bind(op.bound_to, ArrayValue(
            dims=plain[0][1].dims if plain else None,
            dtype=op.dtype or base.dtype,
            origin=plain[0][1].origin if plain else "",
            built=base.built,
            declared=op.dtype is not None or base.declared))

    def _op_copy(self, op: ArrayOp) -> None:
        plain, subs = self._operand_values(op)
        if plain:
            self._bind(op.bound_to, plain[0][1])
        elif subs:
            value = subs[0][1]
            self._bind(op.bound_to, ArrayValue(
                dims=None, dtype=value.dtype, origin="", built=False,
                declared=value.declared))
        else:
            self._bind(op.bound_to, None)

    def _op_view(self, op: ArrayOp) -> None:
        plain, subs = self._operand_values(op)
        base = plain[0][1] if plain else (subs[0][1] if subs else None)
        if base is None:
            self._bind(op.bound_to, None)
            return
        self._bind(op.bound_to, ArrayValue(
            dims=None, dtype=base.dtype, origin="",
            built=op.func != "[]", declared=base.declared))

    def _op_concat(self, op: ArrayOp) -> None:
        if op.loop_depth > 0:
            self._emit("loop-alloc", op.lineno, op.col,
                       f"{op.func}(...) at loop depth {op.loop_depth}")
        plain, subs = self._operand_values(op)
        dtype = _promote(*[value.dtype for _, value in plain + subs])
        self._bind(op.bound_to, ArrayValue(
            dims=None, dtype=dtype, origin="", built=True,
            declared=False))

    def _op_ufunc(self, op: ArrayOp) -> None:
        plain, subs = self._operand_values(op)
        arith = _leaf(op.func) in _ARITH_FUNCS
        const = op.detail.split(",")[0] if op.detail else ""
        known = plain + subs
        if arith and self.events is not None:
            self._check_bool_arith(op, known)
            self._check_promotion(op, known, const)
        dims: Optional[Tuple[str, ...]] = None
        for _, value in plain:
            dims, _ = _broadcast_dims(dims, value.dims)
        dtypes = [value.dtype for _, value in known]
        if const == "float":
            int_side = any(d in ("bool", "int32", "int64")
                           for d in dtypes)
            if int_side:
                dtypes.append("float64")
        dtype = _promote(*dtypes)
        if _leaf(op.func) in ("<", "<=", ">", ">=", "==", "!=",
                              "less", "less_equal", "greater",
                              "greater_equal", "equal", "not_equal",
                              "logical_and", "logical_or",
                              "logical_not"):
            dtype = "bool"
        origin = plain[0][1].origin \
            if len(plain) == 1 and not subs else ""
        self._bind(op.bound_to, ArrayValue(
            dims=dims, dtype=dtype, origin=origin, built=False,
            declared=False))

    def _check_bool_arith(self, op: ArrayOp,
                          known: List[Tuple[str, ArrayValue]]) -> None:
        culprits = [name for name, value in known
                    if value.dtype == "bool"]
        if culprits:
            self._emit("bool-arith", op.lineno, op.col,
                       f"{op.func!r} on bool array "
                       f"{sorted(set(culprits))[0]!r}")

    def _check_promotion(self, op: ArrayOp,
                         known: List[Tuple[str, ArrayValue]],
                         const: str) -> None:
        # bool arithmetic is Y003's finding, not a Y001 promotion.
        declared = [(name, value) for name, value in known
                    if value.declared and value.dtype in
                    ("float32", "int32", "int64")]
        if not declared:
            return
        for name, value in declared:
            others = [v.dtype for n, v in known if n != name]
            promoted = _promote(value.dtype, *others)
            if const == "float" and value.dtype != "float32":
                promoted = _promote(promoted, "float64")
            if promoted != value.dtype and promoted != "?":
                self._emit(
                    "promotion", op.lineno, op.col,
                    f"{name!r} ({value.dtype}) {op.func} operand "
                    f"promotes to {promoted}")
                return

    def _op_axis(self, op: ArrayOp) -> None:
        plain, subs = self._operand_values(op)
        base = plain[0][1] if plain else (subs[0][1] if subs else None)
        if base is None:
            self._bind(op.bound_to, None)
            return
        leaf = _leaf(op.func)
        dtype = base.dtype
        if leaf in _FLOAT_RESULT_AXIS:
            dtype = base.dtype if base.dtype in ("float32", "float64") \
                else "float64"
        elif leaf in ("argmax", "argmin", "count_nonzero"):
            dtype = "int64"
        elif leaf in ("all", "any"):
            dtype = "bool"
        elif leaf in ("sum", "prod") and base.dtype == "bool":
            dtype = "int64"
        if leaf in _SHAPE_PRESERVING_AXIS:
            self._bind(op.bound_to, ArrayValue(
                dims=plain[0][1].dims if plain else None, dtype=dtype,
                origin=plain[0][1].origin if plain else "",
                built=False, declared=base.declared))
            return
        if op.axis is None:
            # A full reduction yields a scalar, not an array.
            self._bind(op.bound_to, None)
            return
        dims: Optional[Tuple[str, ...]] = None
        base_dims = plain[0][1].dims if plain else None
        if base_dims is not None and leaf != "diff":
            try:
                axis = int(op.axis)
                kept = list(base_dims)
                del kept[axis]
                dims = tuple(kept)
            except (ValueError, IndexError):
                dims = None
        self._bind(op.bound_to, ArrayValue(
            dims=dims, dtype=dtype, origin="", built=False,
            declared=False))

    def _op_iter(self, op: ArrayOp) -> None:
        if self.events is None:
            return
        if op.detail == "elementwise":
            arrays = sorted(name for name in op.operands
                            if name in self.env)
            if arrays:
                self._emit(
                    "python-loop", op.lineno, op.col,
                    f"element-wise range loop over "
                    f"{', '.join(repr(a) for a in arrays)}")
        elif op.detail == "name" and op.operands and \
                op.operands[0] in self.env:
            self._emit("python-loop", op.lineno, op.col,
                       f"Python iteration over array "
                       f"{op.operands[0]!r}")

    # -- call semantics ------------------------------------------------------

    def _call(self, call: CallSite) -> None:
        callee = project_callee(self.index, self.module, self.info,
                                call)
        if callee is None:
            return
        params, _ = self.index.constructor_params(callee)
        if self.events is not None:
            self._check_call_shapes(call, callee, params)
        if call.bound_to is None:
            return
        if callee.kind != "function":
            self.env.pop(call.bound_to, None)
            return
        ret = self.rets.get(callee.qualified)
        if ret is None:
            self.env.pop(call.bound_to, None)
            return
        self.env[call.bound_to] = self._substitute(call, params, ret)

    def _substitute(self, call: CallSite, params: Tuple[str, ...],
                    ret: ArrayValue) -> ArrayValue:
        if not ret.origin.startswith("param:"):
            return ret
        desc = self._argument_for(call, params,
                                  ret.origin[len("param:"):])
        if desc is not None and desc.kind == "name" and \
                desc.text in self.env:
            value = self.env[desc.text]
            return ArrayValue(
                dims=value.dims,
                dtype=ret.dtype if ret.dtype != "?" else value.dtype,
                origin=value.origin, built=value.built,
                declared=value.declared)
        return ArrayValue(dims=None, dtype=ret.dtype, origin="",
                          built=False, declared=False)

    @staticmethod
    def _argument_for(call: CallSite, params: Tuple[str, ...],
                      name: str) -> Optional[Any]:
        if name in params:
            position = params.index(name)
            if position < len(call.args):
                return call.args[position]
        for keyword, value in call.keywords:
            if keyword == name:
                return value
        return None

    def _check_call_shapes(self, call: CallSite,
                           callee: ResolvedCallee,
                           params: Tuple[str, ...]) -> None:
        values: Dict[str, ArrayValue] = {}
        for position, param in enumerate(params):
            desc = self._argument_for(call, params, param)
            if desc is not None and desc.kind == "name" and \
                    desc.text in self.env:
                values[param] = self.env[desc.text]
        # S002: trace tensors crossing into motion/simulate must be
        # axis-major (T, 3, n) — a trailing 3 is sample-major.
        if callee.module.startswith(("repro.motion",
                                     "repro.simulate")):
            for param in ("positions", "eulers"):
                value = values.get(param)
                if value is not None and value.dims is not None and \
                        len(value.dims) == 3 and \
                        value.dims[2] == "3" and value.dims[1] != "3":
                    self._emit(
                        "axis-order", call.lineno, call.col,
                        f"argument {param!r} of "
                        f"{callee.qualified} has sample-major shape "
                        f"({', '.join(value.dims)})")
        # S001: arguments the callee combines elementwise must be
        # statically broadcast-compatible.
        for left, right in self.combines.get(callee.qualified, ()):
            value_l = values.get(left)
            value_r = values.get(right)
            if value_l is None or value_r is None or \
                    value_l.dims is None or value_r.dims is None:
                continue
            if broadcast_conflict(value_l.dims, value_r.dims):
                self._emit(
                    "broadcast", call.lineno, call.col,
                    f"{callee.qualified} combines {left!r} "
                    f"({', '.join(value_l.dims)}) with {right!r} "
                    f"({', '.join(value_r.dims)}) elementwise")


# -- table construction ------------------------------------------------------


def _function_inventory(index: ProjectIndex
                        ) -> List[Tuple[str, ModuleInfo, str,
                                        FunctionInfo]]:
    inventory = []
    for module in sorted(index.modules):
        info = index.modules[module]
        for qualname in sorted(info.functions):
            inventory.append((module, info, qualname,
                              info.functions[qualname]))
    return inventory


def _static_combines(inventory: Sequence[Tuple[str, ModuleInfo, str,
                                               FunctionInfo]]
                     ) -> Dict[str, Tuple[Tuple[str, str], ...]]:
    """Param pairs each function combines elementwise (for S001)."""
    combines: Dict[str, Tuple[Tuple[str, str], ...]] = {}
    for module, _, qualname, function in inventory:
        params = [p.name for p in function.params]
        pairs: Set[Tuple[str, str]] = set()
        for op in function.array_ops:
            if op.kind != "ufunc" or \
                    _leaf(op.func) not in _ARITH_FUNCS:
                continue
            hit = sorted({name for name in op.operands
                          if name in params})
            if len(hit) >= 2:
                pairs.add((hit[0], hit[1]))
        if pairs:
            combines[f"{module}.{qualname}"] = tuple(sorted(pairs))
    return combines


def _array_params(function: FunctionInfo) -> Tuple[str, ...]:
    return tuple(p.name for p in function.params
                 if _param_value(p.name, p.annotation) is not None)


def _check_return_shape(module: str, qualname: str,
                        function: FunctionInfo,
                        evaluator: _Evaluator,
                        events: List[ArrayEvent]) -> None:
    """S003: unit-suffixed functions must return their input's shape."""
    from ..visitors import unit_suffix
    if unit_suffix(qualname.rsplit(".", 1)[-1]) is None:
        return
    if not _array_params(function):
        return
    values = evaluator.ret_values
    if not values or any(value is None for value in values):
        return
    built = [value for value in values
             if value is not None and value.built and not value.origin]
    if built:
        events.append(ArrayEvent(
            kind="return-shape", module=module,
            lineno=function.lineno, col=0, function=qualname,
            detail=f"{qualname} constructs a new shape instead of "
                   "preserving its array argument's"))


def _build_table(index: ProjectIndex) -> ArrayTable:
    inventory = _function_inventory(index)
    combines = _static_combines(inventory)
    rets: Dict[str, Optional[ArrayValue]] = {
        f"{module}.{qualname}": None
        for module, _, qualname, _ in inventory}

    # Pass 1: fixpoint over return summaries along call edges.
    for _ in range(10):
        changed = False
        for module, info, qualname, function in inventory:
            key = f"{module}.{qualname}"
            evaluator = _Evaluator(index, module, info, qualname,
                                   function, rets, None, combines)
            ret = evaluator.run()
            if ret != rets[key]:
                rets[key] = ret
                changed = True
        if not changed:
            break

    # Pass 2: replay with the converged table, emitting events.
    events: List[ArrayEvent] = []
    table = ArrayTable()
    for module, info, qualname, function in inventory:
        key = f"{module}.{qualname}"
        evaluator = _Evaluator(index, module, info, qualname, function,
                               rets, events, combines)
        evaluator.run()
        _check_return_shape(module, qualname, function, evaluator,
                            events)
        table.summaries[key] = ArraySummary(
            key=key, ret=rets[key],
            combines=combines.get(key, ()),
            array_params=_array_params(function))
    table.events = tuple(sorted(
        events, key=lambda e: (e.module, e.lineno, e.col, e.kind,
                               e.detail)))
    return table


def array_table(index: ProjectIndex) -> ArrayTable:
    """The (memoized) array-semantics table for an index."""
    cached = getattr(index, "_array_table", None)
    if isinstance(cached, ArrayTable):
        return cached
    table = _build_table(index)
    setattr(index, "_array_table", table)
    return table


def attach_cached_array_table(index: ProjectIndex,
                              payload: Mapping[str, Any]) -> bool:
    """Adopt a cached array table if its key matches this index."""
    if not isinstance(payload, Mapping):
        return False
    if payload.get("key") != arrays_key(index):
        return False
    try:
        table = ArrayTable.from_dict(payload["table"])
    except (KeyError, TypeError, ValueError):
        return False
    setattr(index, "_array_table", table)
    return True


def serialized_array_table(index: ProjectIndex
                           ) -> Optional[Dict[str, Any]]:
    """The cache payload for this index's table (None if not built)."""
    table = getattr(index, "_array_table", None)
    if not isinstance(table, ArrayTable):
        return None
    return {"key": arrays_key(index), "table": table.to_dict()}
