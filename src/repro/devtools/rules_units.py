"""U-series: the unit-suffix convention.

The link budget mixes absolute power (dBm), relative power (dB),
linear power (mW), lengths, angles, voltages, times, and rates.  The
repo's convention is to carry the unit in the name (``power_dbm``,
``range_m``); these rules make the convention load-bearing: suffixed
parameters must be annotated, a value named in one unit must not be
passed into a keyword named in another, and an array parameter must
not be silently truncated by ``float()``.

Both rules read facts extraction already recorded — parameter
annotations with their positions, and call-site keyword values with
their unit suffixes — so they cost no second pass over the source.
"""

from __future__ import annotations

from typing import Iterator, Set

from .extract import package_parts, unit_suffix
from .findings import Finding
from .index import ProjectIndex
from .model import ModuleInfo
from .registry import Rule, register_rule

#: Annotations that cannot possibly describe a numeric quantity.
_NON_NUMERIC = frozenset({"str", "bool", "bytes", "dict", "Dict"})

#: Annotation fragments identifying an array-typed parameter (U002).
_ARRAY_MARKERS = ("ndarray", "NDArray", "ArrayLike", "Array")

#: Subpackages whose float() calls U002 polices.
_U002_PACKAGES = frozenset({"optics", "link"})


def _modules(index: ProjectIndex) -> Iterator[ModuleInfo]:
    for module in sorted(index.modules):
        yield index.modules[module]


@register_rule
class UnitSuffixRule(Rule):
    """U001: unit-suffixed parameters are annotated and never
    cross-assigned to a different unit within a call."""

    rule_id = "U001"
    summary = ("parameters with unit suffixes (_dbm/_db/_mw/_m/_mm/"
               "_mrad/_v/_s/_hz) must be annotated, and keyword "
               "arguments must not mix unit suffixes")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in _modules(index):
            if package_parts(info.path)[:1] == ("repro",):
                yield from self._check_signatures(info)
            yield from self._check_calls(info)

    def _check_signatures(self, info: ModuleInfo) -> Iterator[Finding]:
        for function in info.functions.values():
            for param in function.params:
                suffix = unit_suffix(param.name)
                if suffix is None:
                    continue
                if param.annotation is None:
                    yield self.finding(
                        info, param.lineno, param.col,
                        f"parameter {param.name} carries the {suffix} "
                        "unit suffix but no type annotation (expected "
                        "float or an array type)")
                elif param.annotation in _NON_NUMERIC:
                    yield self.finding(
                        info, param.lineno, param.col,
                        f"parameter {param.name} carries the {suffix} "
                        f"unit suffix but is annotated "
                        f"{param.annotation}, which cannot hold a "
                        "physical quantity")

    def _check_calls(self, info: ModuleInfo) -> Iterator[Finding]:
        for call in info.calls:
            for keyword, value in call.keywords:
                expected = unit_suffix(keyword)
                if expected is None or value.kind != "name":
                    continue
                if value.suffix is not None and value.suffix != expected:
                    yield self.finding(
                        info, value.lineno, value.col,
                        f"{value.text} ({value.suffix}) passed into "
                        f"{keyword}= ({expected}); convert explicitly "
                        "or rename one side")


@register_rule
class FloatTruncationRule(Rule):
    """U002: no bare ``float(array_param)`` in ``optics/`` / ``link/``.

    ``float()`` of a multi-element array raises at runtime; of a
    single-element array it silently collapses a vector quantity.  A
    reduction (``float(np.sum(x))``) states intent and stays allowed.
    """

    rule_id = "U002"
    summary = ("no bare float(<array parameter>) in repro/optics and "
               "repro/link; reduce explicitly first")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in _modules(index):
            parts = package_parts(info.path)
            if parts[:1] != ("repro",) or len(parts) < 2 or \
                    parts[1] not in _U002_PACKAGES:
                continue
            for call in info.calls:
                if call.func != "float" or len(call.args) != 1 or \
                        call.args[0].kind != "name":
                    continue
                name = call.args[0].text
                if name in self._array_params(info, call.in_function):
                    yield self.finding(
                        info, call.lineno, call.col,
                        f"float({name}) truncates an array-typed "
                        "parameter; reduce it explicitly (e.g. "
                        "float(np.sum(...)) or .item())")

    @staticmethod
    def _array_params(info: ModuleInfo, scope: str) -> Set[str]:
        """Array-annotated parameters of every function enclosing
        ``scope`` (closures see their outer functions' parameters)."""
        arrays: Set[str] = set()
        parts = scope.split(".") if scope else []
        while parts:
            function = info.functions.get(".".join(parts))
            if function is not None:
                arrays.update(
                    p.name for p in function.params
                    if p.annotation and any(marker in p.annotation
                                            for marker in _ARRAY_MARKERS))
            parts.pop()
        return arrays
