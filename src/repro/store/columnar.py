"""A columnar, memmap-friendly dataset store.

Million-trace corpora do not fit a pickle, barely fit RAM, and must
never be rematerialized just to read one column.  This module stores
datasets as *column groups*: one directory per group, one ``.npy``
file per column, plus a ``meta.json`` sidecar with the row count,
column catalogue and user attributes::

    <root>/
      traces/
        meta.json
        step_linear_m.npy
        step_angular_rad.npy
        ...
      slots/
        meta.json
        connected.npy
        ...

Design points, in order of importance:

* **Lazy, zero-copy reads.**  :meth:`ColumnStore.read_group` opens
  columns with ``np.load(..., mmap_mode="r")``: nothing is read until
  a column is touched, and touching one pages in only the slices the
  caller indexes.  A million-trace ``connected`` matrix streams from
  disk instead of living in RAM.
* **Preallocated streaming writes.**  :meth:`ColumnStore.open_writer`
  creates the full-size ``.npy`` files up front (numpy's own format,
  via ``open_memmap``) and hands back writable row-addressable
  memmaps that a caller fills row by row, so results spool to disk
  without a full in-RAM copy.  The group only
  becomes visible (``meta.json`` written) at :meth:`GroupWriter.
  finalize`, so a crashed run never leaves a readable half-group.
* **Single-file interchange.**  :meth:`ColumnStore.export_npz` /
  :meth:`ColumnStore.import_npz` round-trip a group through one
  ``.npz`` archive for shipping; the directory layout stays the
  operational format because zip members cannot be memmapped.

The store is deliberately dumb: named arrays plus JSON attributes.
Schema (which columns make a trace corpus) belongs to the callers —
see ``repro.motion.batch.TraceBatch.save`` and
``repro.simulate.batch.BatchTimeslotResult.save``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from .atomic import fsync_path, fsync_tree

#: Group and column names: filesystem-safe, no separators, no dots.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_\-]*$")

#: meta.json schema version (bump on incompatible layout changes).
_FORMAT_VERSION = 1

_META = "meta.json"


class StoreError(RuntimeError):
    """A group's on-disk state is corrupt, torn, or unreadable.

    Raised instead of whatever ``json`` / ``numpy`` would surface
    (``JSONDecodeError``, a bare ``ValueError`` from a truncated
    ``.npy``, ``FileNotFoundError`` for a missing column) so callers
    can distinguish *corruption* from programming errors and react —
    the sweep orchestrator, for instance, treats a corrupt unit group
    as "not done" and recomputes it.
    """


def _check_name(kind: str, name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid {kind} name {name!r}: use letters, digits, "
            "underscore and dash only")
    return name


class ColumnGroup:
    """One named group of columns, read lazily from disk.

    Mapping-style access (``group["connected"]``) returns the column
    as a (possibly memmapped) array; ``attrs`` carries the JSON
    metadata recorded at write time.
    """

    def __init__(self, name: str, path: Path,
                 columns: List[str], rows: int, attrs: Dict,
                 mmap: bool = True,
                 column_specs: Optional[Dict[str, Dict]] = None) -> None:
        self.name = name
        self.path = path
        self.attrs = attrs
        self.rows = rows
        self._columns = list(columns)
        self._specs = dict(column_specs or {})
        self._mmap = mmap
        self._cache: Dict[str, np.ndarray] = {}

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise KeyError(
                f"group {self.name!r} has no column {name!r}; "
                f"available: {', '.join(sorted(self._columns))}")
        if name not in self._cache:
            mode = "r" if self._mmap else None
            path = self.path / f"{name}.npy"
            try:
                array = np.load(path, mmap_mode=mode)
            except FileNotFoundError as exc:
                raise StoreError(
                    f"group {self.name!r}: column file {name}.npy is "
                    f"missing from {self.path} (meta.json lists it; "
                    "the group is corrupt)") from exc
            except (ValueError, OSError, EOFError) as exc:
                raise StoreError(
                    f"group {self.name!r}: column file {name}.npy is "
                    f"truncated or corrupt ({exc})") from exc
            spec = self._specs.get(name)
            if spec is not None and (
                    list(array.shape) != list(spec.get("shape", [])) or
                    array.dtype.str != spec.get("dtype")):
                raise StoreError(
                    f"group {self.name!r}: column {name!r} on disk is "
                    f"{array.dtype.str}{list(array.shape)} but "
                    f"meta.json promises {spec.get('dtype')}"
                    f"{spec.get('shape')} (torn or mismatched write)")
            self._cache[name] = array
        return self._cache[name]

    def load(self, name: str) -> np.ndarray:
        """The column fully materialized in RAM (a mutable copy)."""
        return np.array(self[name])

    def as_dict(self) -> Dict[str, np.ndarray]:
        """All columns (lazily opened), keyed by name."""
        return {name: self[name] for name in self._columns}


class GroupWriter:
    """Streaming writer for one group: preallocated column memmaps.

    Obtained from :meth:`ColumnStore.open_writer`.  ``columns[name]``
    is a writable ``np.memmap`` with one row per dataset item; fill
    rows in any order (workers do), then call :meth:`finalize` to
    flush and publish the group.  Until then the group directory is a
    hidden ``.tmp`` sibling, so readers never observe a torn write.
    """

    def __init__(self, store: "ColumnStore", name: str, rows: int,
                 columns: Dict[str, np.memmap], attrs: Dict) -> None:
        self._store = store
        self.name = name
        self.rows = rows
        self.columns = columns
        self.attrs = dict(attrs)
        self._tmp = store.root / f".{name}.tmp"
        self._done = False

    def finalize(self,
                 extra_attrs: Optional[Mapping] = None) -> ColumnGroup:
        """Flush every column, write meta.json, publish the group."""
        if self._done:
            raise RuntimeError(f"group {self.name!r} already finalized")
        if extra_attrs:
            self.attrs.update(extra_attrs)
        for array in self.columns.values():
            array.flush()
        _write_meta(self._tmp, self.rows,
                    {name: array for name, array in self.columns.items()},
                    self.attrs)
        fsync_tree(self._tmp)
        final = self._store.root / self.name
        if final.exists():
            shutil.rmtree(final)
        os.replace(self._tmp, final)
        self._done = True
        return self._store.read_group(self.name)

    def abort(self) -> None:
        """Drop the half-written group (idempotent)."""
        self._done = True
        if self._tmp.exists():
            shutil.rmtree(self._tmp)


def _write_meta(path: Path, rows: int,
                columns: Mapping[str, np.ndarray], attrs: Mapping) -> None:
    meta = {
        "format_version": _FORMAT_VERSION,
        "rows": rows,
        "columns": {
            name: {"shape": list(array.shape),
                   "dtype": array.dtype.str}
            for name, array in columns.items()
        },
        "attrs": dict(attrs),
    }
    with open(path / _META, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


class ColumnStore:
    """A directory of column groups (see module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- writing ---------------------------------------------------------

    def write_group(self, name: str,
                    columns: Mapping[str, np.ndarray],
                    attrs: Optional[Mapping] = None) -> ColumnGroup:
        """Write a complete group in one call (atomic publish).

        Every column must share the same leading dimension (the row
        count).  Overwrites an existing group of the same name.
        """
        _check_name("group", name)
        if not columns:
            raise ValueError("a group needs at least one column")
        for column in columns.keys():
            _check_name("column", column)
        rows = _common_rows(columns)
        tmp = self.root / f".{name}.tmp"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        try:
            for column, array in columns.items():
                np.save(tmp / f"{column}.npy",
                        np.ascontiguousarray(array))
            _write_meta(tmp, rows, columns, attrs or {})
            fsync_tree(tmp)
            final = self.root / name
            if final.exists():
                shutil.rmtree(final)
            os.replace(tmp, final)
        except OSError as exc:
            shutil.rmtree(tmp, ignore_errors=True)
            raise StoreError(
                f"could not publish group {name!r}: {exc}") from exc
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return self.read_group(name)

    def open_writer(self, name: str,
                    specs: Mapping[str, Tuple[Tuple[int, ...], object]],
                    rows: int,
                    attrs: Optional[Mapping] = None) -> GroupWriter:
        """Preallocate a group for streaming row writes.

        ``specs`` maps column name to ``(trailing_shape, dtype)``; the
        column files are created full-size as ``(rows, *shape)``
        memmaps.  Pass ``writer.columns`` as ``out=`` to
        :func:`repro.parallel.parallel_map_arrays` to have pool
        workers spool rows straight to disk.
        """
        _check_name("group", name)
        if rows < 0:
            raise ValueError("rows must be >= 0")
        if not specs:
            raise ValueError("a group needs at least one column")
        tmp = self.root / f".{name}.tmp"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        columns: Dict[str, np.memmap] = {}
        for column, (shape, dtype) in specs.items():
            _check_name("column", column)
            columns[column] = np.lib.format.open_memmap(
                tmp / f"{column}.npy", mode="w+",
                dtype=np.dtype(dtype), shape=(rows,) + tuple(shape))
        return GroupWriter(self, name, rows, columns, dict(attrs or {}))

    # -- reading ---------------------------------------------------------

    def read_group(self, name: str, mmap: bool = True) -> ColumnGroup:
        """Open a group; columns load lazily (memmapped by default).

        Raises :class:`KeyError` for a group that simply is not there
        and :class:`StoreError` for one that exists but is unreadable
        (mangled ``meta.json``, bad schema) — the distinction callers
        need to tell "not written yet" from "written and torn".
        """
        _check_name("group", name)
        path = self.root / name
        meta_path = path / _META
        if not meta_path.exists():
            raise KeyError(
                f"no group {name!r} in {self.root} "
                f"(available: {', '.join(self.groups()) or 'none'})")
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except (ValueError, OSError) as exc:
            raise StoreError(
                f"group {name!r}: mangled {_META} ({exc})") from exc
        columns = meta.get("columns")
        rows = meta.get("rows")
        if not isinstance(meta, dict) or not isinstance(columns, dict) \
                or not isinstance(rows, int) or rows < 0:
            raise StoreError(
                f"group {name!r}: {_META} does not describe a column "
                f"group (need integer 'rows' and a 'columns' table)")
        return ColumnGroup(name, path, sorted(columns),
                           rows, meta.get("attrs", {}),
                           mmap=mmap, column_specs=columns)

    def groups(self) -> List[str]:
        """Names of the published groups, sorted."""
        if not self.root.exists():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and not p.name.startswith(".")
                      and (p / _META).exists())

    def has_group(self, name: str) -> bool:
        return (self.root / name / _META).exists()

    def delete_group(self, name: str) -> None:
        _check_name("group", name)
        path = self.root / name
        if path.exists():
            shutil.rmtree(path)

    # -- maintenance -----------------------------------------------------

    def vacuum(self) -> List[str]:
        """Reap orphaned ``.{name}.tmp`` dirs left by crashed writers.

        A writer that dies before :meth:`GroupWriter.finalize` leaves
        its hidden tmp directory behind; readers never see it, but the
        garbage accumulates forever.  Call this only when no writer is
        active on the store (it cannot tell a stale tmp dir from a
        live one).  Returns the names of the directories removed.
        """
        removed: List[str] = []
        for path in sorted(self.root.glob(".*.tmp")):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
                removed.append(path.name)
        return removed

    # -- interchange -----------------------------------------------------

    def export_npz(self, name: str,
                   path: Union[str, Path, None] = None) -> Path:
        """Pack a group into one uncompressed ``.npz`` archive."""
        group = self.read_group(name)
        target = Path(path) if path is not None \
            else self.root / f"{name}.npz"
        payload = {column: np.asarray(group[column]) for column in group}
        payload["__meta__"] = np.frombuffer(
            json.dumps({"rows": group.rows, "attrs": group.attrs},
                       sort_keys=True).encode(), dtype=np.uint8)
        # Tmp sibling already ending in .npz so np.savez appends
        # nothing; fsync + rename keeps the archive all-or-nothing.
        tmp = target.with_name(f".{target.name}.tmp.npz")
        np.savez(tmp, **payload)
        fsync_path(tmp)
        os.replace(tmp, target)
        return target

    def import_npz(self, name: str, path: Union[str, Path]) -> ColumnGroup:
        """Unpack an :meth:`export_npz` archive into a group."""
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__meta__"]).decode()) \
                if "__meta__" in archive.files else {"attrs": {}}
            columns = {column: archive[column]
                       for column in archive.files
                       if column != "__meta__"}
        return self.write_group(name, columns, attrs=meta.get("attrs", {}))


def _common_rows(columns: Mapping[str, np.ndarray]) -> int:
    rows = {int(np.asarray(array).shape[0]) if np.asarray(array).ndim
            else -1 for array in columns.values()}
    if len(rows) != 1 or -1 in rows:
        raise ValueError(
            "all columns must share the same leading (row) dimension; "
            "got " + ", ".join(
                f"{name}: {np.asarray(a).shape}"
                for name, a in sorted(columns.items())))
    return rows.pop()


def scratch_store(prefix: str = "repro-store-") -> ColumnStore:
    """A throwaway store under the system temp dir (caller cleans up)."""
    return ColumnStore(tempfile.mkdtemp(prefix=prefix))
