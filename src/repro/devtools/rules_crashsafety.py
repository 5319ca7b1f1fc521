"""W-series: crash-safety of every file the repo publishes.

The crash model says a reader observes either the old complete file
or the new complete file — never a torn prefix.  The sanctioned
plumbing is the module named by :data:`.effects.ATOMIC_MODULE`,
``repro.store.atomic`` (write tmp sibling → flush → fsync →
``os.replace``).  These rules police everyone else, consuming the
effect table of :mod:`.effects`.  ``src/repro`` itself publishes no
file, so only the ``crashsafety`` fixture tree under
``tests/fixtures/program`` exercises them today:

* **W001** — a truncating write (``open(path, "w")`` and the
  ``json.dump`` it feeds, ``np.save``, ``Path.write_text``) lands on a
  *published* path.  Tmp→rename scopes are recognized two ways: a
  path expression carrying a tmp token is safe directly, and a helper
  writing to its own ``path`` parameter is resolved at each call site
  (``_write_meta(tmp_dir, ...)`` is proven safe; ``_write_meta(final,
  ...)`` is a finding at the call site).
* **W002** — a function publishes via rename (``os.replace`` /
  ``os.rename`` / ``Path.replace``) and writes data, but neither it
  nor anything it calls ever ``fsync``\\ s: after a crash the rename
  can survive while the renamed bytes do not.
"""

from __future__ import annotations

from typing import Dict, Iterator

from .effects import ATOMIC_MODULE, EffectTable, effect_table
from .findings import Finding
from .index import ProjectIndex
from .model import ModuleInfo
from .registry import Rule, register_rule

def _by_module(index: ProjectIndex) -> Dict[str, ModuleInfo]:
    return dict(index.modules)


class _EffectRule(Rule):
    """Shared scaffold: build the table once, dispatch per event."""

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        table = effect_table(index)
        yield from self.check_table(index, table)

    def check_table(self, index: ProjectIndex,
                    table: EffectTable) -> Iterator[Finding]:
        raise NotImplementedError


@register_rule
class NonAtomicWriteRule(_EffectRule):
    """W001: no truncating write to a published path."""

    rule_id = "W001"
    summary = ("a truncating write (open(path, 'w') / json.dump / "
               "np.save / Path.write_text) to a published path tears "
               "under crash; route it through store.atomic."
               "write_json_atomic or a tmp-sibling → fsync → "
               "os.replace scope")

    def check_table(self, index: ProjectIndex,
                    table: EffectTable) -> Iterator[Finding]:
        modules = _by_module(index)
        for event in table.published_writes:
            if event.module == ATOMIC_MODULE or event.mode != "w":
                continue
            info = modules.get(event.module)
            if info is None:
                continue
            yield self.finding(
                info, event.lineno, event.col,
                f"{event.via} writes {event.detail!r} in place; a "
                "crash mid-write leaves a torn file where readers "
                "expect all-or-nothing — publish through "
                "write_json_atomic or a tmp sibling + fsync + "
                "os.replace")


@register_rule
class RenameWithoutFsyncRule(_EffectRule):
    """W002: publish renames must be preceded by an fsync."""

    rule_id = "W002"
    summary = ("a function that publishes via os.replace/rename after "
               "writing data must fsync (directly or via a callee) "
               "before the rename; otherwise the rename can survive a "
               "crash while the renamed bytes do not")

    def check_table(self, index: ProjectIndex,
                    table: EffectTable) -> Iterator[Finding]:
        modules = _by_module(index)
        for key in sorted(table.summaries):
            summary = table.summaries[key]
            if not summary.renames or not summary.writes_any or \
                    summary.fsyncs:
                continue
            for rename in summary.renames:
                if rename.module == ATOMIC_MODULE:
                    continue
                info = modules.get(rename.module)
                if info is None:
                    continue
                yield self.finding(
                    info, rename.lineno, rename.col,
                    f"rename onto {rename.detail!r} publishes data "
                    "that was never fsynced; a crash after the "
                    "rename can surface a file whose bytes were "
                    "lost — fsync the written files (and the tmp "
                    "dir) before os.replace")
