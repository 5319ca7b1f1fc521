"""The work-unit manifest: what a sweep *is*, content-addressed.

A sweep is enumerated up front as an ordered list of **work units**,
each a JSON-able parameter dictionary.  Identity is content-hashed in
two tiers, mirroring the ``devtools`` analyzer cache (per-file shas
feeding one whole-run key):

* **tier 1 — the unit key**: SHA-256 over the canonical JSON of
  ``(manifest version, sweep name, common params, unit params)``.
  This is the name completed work is filed under (journal records,
  spooled column groups), so a unit's results survive any reordering
  or extension of the sweep that keeps its parameters intact.
* **tier 2 — the sweep key**: SHA-256 over the ordered unit keys plus
  the shared configuration.  Resume compares this single value to
  decide whether a checkpoint directory belongs to the sweep being
  asked for; any drift in any unit's parameters changes it.

Keys derive only from parameters — never from wall clock, host, or
worker count — so re-deriving the manifest on ``--resume`` reproduces
it exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from ..store import read_json, write_json_atomic

#: Bump on changes to key derivation or the manifest file schema;
#: part of every hash, so old checkpoints are cleanly rejected.
MANIFEST_VERSION = 1

#: Hex digits of the unit key used for group / display names.
_SHORT_KEY = 16


class ManifestError(ValueError):
    """A sweep definition or manifest file is unusable."""


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    try:
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ManifestError(
            f"sweep parameters must be JSON-able, finite values: "
            f"{exc}") from exc


def content_key(payload: object) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WorkUnit:
    """One unit of a sweep: its position, identity, and parameters."""

    index: int
    key: str
    params: Mapping[str, object]

    @property
    def group(self) -> str:
        """The column-group name this unit's results spool under."""
        return f"u{self.key[:_SHORT_KEY]}"

    @property
    def label(self) -> str:
        """Short display form: ``#<index> u<key prefix>``."""
        return f"#{self.index} {self.group}"


@dataclass(frozen=True)
class SweepManifest:
    """The full enumerated sweep plus its two-tier content keys."""

    name: str
    common: Mapping[str, object]
    units: Tuple[WorkUnit, ...]
    sweep_key: str

    def unit_by_key(self) -> Dict[str, WorkUnit]:
        return {unit.key: unit for unit in self.units}


def build_manifest(name: str,
                   common: Mapping[str, object],
                   unit_params: Sequence[Mapping[str, object]]
                   ) -> SweepManifest:
    """Enumerate and content-address a sweep.

    Raises :class:`ManifestError` for an empty sweep, un-JSON-able
    parameters, or two units with identical parameters (their results
    would collide under one key).
    """
    if not unit_params:
        raise ManifestError(f"sweep {name!r} has no work units")
    common = dict(common)
    units: List[WorkUnit] = []
    seen: Dict[str, int] = {}
    for index, params in enumerate(unit_params):
        key = content_key({
            "version": MANIFEST_VERSION,
            "sweep": name,
            "common": common,
            "params": dict(params),
        })
        if key in seen:
            raise ManifestError(
                f"sweep {name!r}: units #{seen[key]} and #{index} "
                f"have identical parameters ({dict(params)!r}); every "
                "unit must be unique")
        seen[key] = index
        units.append(WorkUnit(index=index, key=key,
                              params=dict(params)))
    sweep_key = content_key({
        "version": MANIFEST_VERSION,
        "sweep": name,
        "common": common,
        "units": [unit.key for unit in units],
    })
    return SweepManifest(name=name, common=common,
                         units=tuple(units), sweep_key=sweep_key)


def write_manifest(path: Union[str, Path],
                   manifest: SweepManifest) -> None:
    """Publish the manifest file atomically (informational + guard)."""
    write_json_atomic(path, {
        "version": MANIFEST_VERSION,
        "sweep": manifest.name,
        "sweep_key": manifest.sweep_key,
        "common": dict(manifest.common),
        "units": [
            {"index": unit.index, "key": unit.key,
             "params": dict(unit.params)}
            for unit in manifest.units
        ],
    }, sort_keys=True)


def read_manifest_key(path: Union[str, Path]) -> str:
    """The recorded sweep key of a manifest file.

    Raises :class:`ManifestError` when the file is unreadable or not a
    manifest — the caller decides whether that is fatal (a mismatched
    sweep) or recoverable (a torn file that will be rewritten, since
    the manifest is always re-derivable from the sweep definition).
    """
    try:
        payload = read_json(path)
    except (OSError, ValueError) as exc:
        raise ManifestError(
            f"unreadable manifest at {path}: {exc}") from exc
    if not isinstance(payload, dict) or \
            payload.get("version") != MANIFEST_VERSION or \
            not isinstance(payload.get("sweep_key"), str):
        raise ManifestError(
            f"{path} is not a version-{MANIFEST_VERSION} sweep "
            "manifest")
    return payload["sweep_key"]
