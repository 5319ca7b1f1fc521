"""L-series: the import-layering contract.

The repo's packages form an explicit DAG — physics primitives at the
bottom, the learned pipeline above them, workloads above that, the
experiment harnesses above those, and tooling on top:

====== =========================================================
layer  packages
====== =========================================================
0      ``constants`` ``determinism`` ``parallel`` ``reporting``
1      ``geometry`` ``optics`` ``galvo`` ``vrh`` ``net`` ``stream``
2      ``core`` ``link``
3      ``motion`` ``plan`` ``analysis``
4      ``simulate`` ``baselines``
5      ``devtools`` ``cli`` ``__main__`` (and the ``repro`` facade)
====== =========================================================

A module may import its own layer and any layer below it; importing
*upward* couples the physics to the harnesses that are supposed to be
swappable on top of it.  ``TYPE_CHECKING``-gated imports are exempt
(they never execute), but lazy function-level imports are not — they
are a runtime dependency however late they bind.  Cycle detection
(L002) considers only module-level imports, since a lazy import is the
sanctioned way to break a cycle.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .index import ProjectIndex
from .model import ImportedName, ModuleInfo
from .registry import Rule, register_rule

#: The layer DAG, as (layer name, members).  Index = height.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("foundation", ("constants", "determinism", "parallel",
                    "reporting")),
    ("device", ("geometry", "optics", "galvo", "vrh", "net",
                "stream")),
    ("pipeline", ("core", "link")),
    ("workload", ("motion", "plan", "analysis")),
    ("experiment", ("simulate", "baselines")),
    ("tooling", ("devtools", "cli", "__main__")),
)

_COMPONENT_LAYER: Dict[str, int] = {
    member: height
    for height, (_, members) in enumerate(LAYERS)
    for member in members
}


def component_of(module: str) -> Optional[str]:
    """The ``repro`` subpackage a module belongs to, or None.

    ``repro.optics.units`` -> ``optics``; the package facade
    ``repro`` itself maps to the top layer sentinel ``__main__``-side
    (it imports everything by design).
    """
    if module == "repro":
        return "__main__"
    if not module.startswith("repro."):
        return None
    return module.split(".")[1]


def layer_of(module: str) -> Optional[int]:
    component = component_of(module)
    if component is None:
        return None
    return _COMPONENT_LAYER.get(component)


def _import_edges(index: ProjectIndex, info: ModuleInfo,
                  include_lazy: bool
                  ) -> Iterator[Tuple[ImportedName, str]]:
    """(record, imported repro module) pairs for one module."""
    for record in info.imports:
        if record.type_checking:
            continue
        if record.lazy and not include_lazy:
            continue
        target = record.target if record.target in index.modules \
            else record.module
        if target in index.modules and target.startswith("repro"):
            yield record, target


@register_rule
class LayeringRule(Rule):
    """L001: no module may import a higher layer."""

    rule_id = "L001"
    summary = ("imports must follow the layer DAG ("
               + " -> ".join(name for name, _ in LAYERS)
               + "); upward imports are findings")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for module in sorted(index.modules):
            info = index.modules[module]
            here = layer_of(module)
            if here is None:
                continue
            for record, target in _import_edges(index, info,
                                                include_lazy=True):
                there = layer_of(target)
                if there is None or there <= here:
                    continue
                yield self.finding(
                    info, record.lineno, 0,
                    f"{module} (layer {LAYERS[here][0]}) imports "
                    f"{target} (layer {LAYERS[there][0]}): lower "
                    "layers must not depend on the harnesses above "
                    "them")


@register_rule
class ImportCycleRule(Rule):
    """L002: no module-level import cycles."""

    rule_id = "L002"
    summary = ("no cycles among module-level imports; break a "
               "genuine mutual dependency with a lazy (function-"
               "level) import")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        edges: Dict[str, Set[str]] = {}
        for module in index.modules:
            info = index.modules[module]
            targets = set()
            for record, target in _import_edges(index, info,
                                                include_lazy=False):
                if target != module:
                    targets.add(target)
            edges[module] = targets
        for cycle in _strongly_connected(edges):
            anchor = min(cycle)
            info = index.modules[anchor]
            line = self._import_line(index, info, cycle)
            members = " -> ".join(sorted(cycle))
            yield self.finding(
                info, line, 0,
                f"module-level import cycle: {members}; break it with "
                "a lazy import or by moving the shared piece down a "
                "layer")

    def _import_line(self, index: ProjectIndex, info: ModuleInfo,
                     cycle: Set[str]) -> int:
        for record, target in _import_edges(index, info,
                                            include_lazy=False):
            if target in cycle:
                return record.lineno
        return 1


@register_rule
class UnassignedModuleRule(Rule):
    """L003: every repro subpackage must be assigned to a layer."""

    rule_id = "L003"
    summary = ("every repro.* module must belong to a declared layer; "
               "add new subpackages to the LAYERS contract")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for module in sorted(index.modules):
            if not module.startswith("repro"):
                continue
            if layer_of(module) is None:
                info = index.modules[module]
                component = component_of(module)
                yield self.finding(
                    info, 1, 0,
                    f"module {module} (subpackage {component!r}) is "
                    "not assigned to any layer in the layering "
                    "contract (repro.devtools.rules_layering.LAYERS)")


def _strongly_connected(edges: Dict[str, Set[str]]
                        ) -> List[Set[str]]:
    """Tarjan SCCs of size > 1 (iterative, deterministic order)."""
    order: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: List[Set[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(sorted(edges.get(root, ()))))]
        order[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in edges:
                    continue
                if child not in order:
                    order[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(edges[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], order[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) > 1:
                    result.append(component)

    for node in sorted(edges):
        if node not in order:
            strongconnect(node)
    return result
