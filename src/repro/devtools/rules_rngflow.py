"""T001: RNG provenance starts in ``repro.determinism``.

The determinism contract (:mod:`repro.determinism`) says every
stochastic component draws from a generator its caller threaded in.
T001 keeps the mint in one place: numpy generators may only be
created inside ``repro.determinism``; everything else derives them
through ``resolve_rng`` / ``spawn`` / ``derive``.  The rest of the
contract is pinned at runtime: ``resolve_rng`` raises ``ValueError``
when a component gets no ``rng=``, no ``seed=`` and
``deterministic=True``, and the ``*_workers_do_not_change_bytes``
tests hold the process-pool boundary byte for byte.
"""

from __future__ import annotations

from typing import Iterator

from .findings import Finding
from .index import ProjectIndex
from .registry import Rule, register_rule

#: The one module allowed to call the numpy generator factories.
SANCTIONED_MINT = "repro.determinism"

#: Callee leaves that *mint* a fresh generator from numpy.
_FACTORY_LEAVES = frozenset({"default_rng", "RandomState"})


def _leaf(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


@register_rule
class MintDisciplineRule(Rule):
    """T001: generators are minted only inside repro.determinism."""

    rule_id = "T001"
    summary = ("np.random.default_rng / RandomState may be called "
               "only inside repro.determinism; everything else uses "
               "resolve_rng / spawn / derive so provenance stays "
               "traceable")

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for module in sorted(index.modules):
            if not module.startswith("repro") or \
                    module == SANCTIONED_MINT:
                continue
            info = index.modules[module]
            for call in info.calls:
                if not call.func:
                    continue
                if _leaf(call.func) not in _FACTORY_LEAVES:
                    continue
                root = call.func.split(".")[0]
                if root not in ("np", "numpy", "default_rng",
                                "RandomState"):
                    continue
                yield self.finding(
                    info, call.lineno, call.col,
                    f"{call.func}() mints a generator outside "
                    f"{SANCTIONED_MINT}; use resolve_rng(seed=...), "
                    "spawn(parent) or derive(*keys) so RNG "
                    "provenance stays auditable")
