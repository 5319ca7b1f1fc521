"""Y/P-series: dtype stability and allocation discipline on the hot path.

Y-rules keep dtypes stable: an implicit promotion or a
platform-defaulted allocation dtype silently doubles memory traffic.
P-rules police per-iteration allocation and Python-level element
loops — the two habits that cap a batch engine an order of magnitude
below memory bandwidth.  Both are scoped to the hot modules
(:data:`~.arrays.HOT_MODULES`: the batch engines and the columnar
store) — cold plumbing may let NumPy default and loop freely.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from .arrays import HOT_MODULES, ArrayEvent, array_table
from .index import ProjectIndex
from .registry import ProgramRule, register_program_rule


class _HotEventRule(ProgramRule):
    """Shared scaffold: one event kind, hot modules only."""

    event_kind = ""

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        table = array_table(index)
        for event in table.events:
            if event.kind != self.event_kind or \
                    event.module not in HOT_MODULES:
                continue
            info = index.modules.get(event.module)
            if info is None:
                continue
            yield self.finding(info, event.lineno, event.col,
                               self.message(event))

    def message(self, event: ArrayEvent) -> str:
        raise NotImplementedError


@register_program_rule
class ImplicitPromotionRule(_HotEventRule):
    """Y001: arithmetic silently widens a declared-dtype array."""

    rule_id = "Y001"
    summary = ("in hot modules, arithmetic on a declared-dtype array "
               "must not silently promote it to a wider dtype")
    event_kind = "promotion"

    def message(self, event: ArrayEvent) -> str:
        return (f"implicit dtype promotion: {event.detail}; cast "
                "explicitly or keep the operands at one dtype")


@register_program_rule
class ImplicitAllocationDtypeRule(_HotEventRule):
    """Y002: hot-path allocations carry an explicit dtype."""

    rule_id = "Y002"
    summary = ("in hot modules, np.empty/zeros/ones/full and array "
               "literals must pass an explicit dtype=")
    event_kind = "implicit-dtype"

    def message(self, event: ArrayEvent) -> str:
        return (f"allocation without explicit dtype: {event.detail}; "
                "pass dtype= so the hot path's dtypes are declared, not "
                "defaulted")


@register_program_rule
class BoolArithmeticRule(_HotEventRule):
    """Y003: arithmetic on bool arrays upcasts behind your back."""

    rule_id = "Y003"
    summary = ("in hot modules, arithmetic (+ - * /) on a bool array "
               "silently upcasts; use logical ops (& | ~) or an "
               "explicit cast")
    event_kind = "bool-arith"

    def message(self, event: ArrayEvent) -> str:
        return (f"bool-array arithmetic: {event.detail} upcasts to an "
                "integer dtype; use &, |, ~ or cast explicitly")


@register_program_rule
class LoopAllocationRule(_HotEventRule):
    """P001: no allocation or concatenation inside a hot loop."""

    rule_id = "P001"
    summary = ("in hot modules, array allocation and np.concatenate/"
               "np.append inside a loop reallocate per iteration; "
               "hoist the buffer out of the loop")
    event_kind = "loop-alloc"

    def message(self, event: ArrayEvent) -> str:
        return (f"allocation in loop: {event.detail} in "
                f"{event.function}; hoist the buffer and write into "
                "it")


@register_program_rule
class PythonLoopRule(_HotEventRule):
    """P002: no element-wise Python loops where a ufunc would do."""

    rule_id = "P002"
    summary = ("in hot modules, a Python for-loop indexing arrays "
               "element-wise is a vectorized op written long-hand; "
               "loop-carried scans are exempt")
    event_kind = "python-loop"

    def message(self, event: ArrayEvent) -> str:
        return (f"vectorizable Python loop: {event.detail} in "
                f"{event.function}; replace with a whole-array op")
