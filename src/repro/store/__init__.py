"""Columnar on-disk dataset store (trace corpora, slot results).

See :mod:`repro.store.columnar` for the layout and contracts, and
:mod:`repro.store.atomic` for the all-or-nothing sidecar-file writes
that share its crash model.
"""

from .atomic import fsync_path, fsync_tree, write_json_atomic
from .columnar import ColumnGroup, ColumnStore, GroupWriter, StoreError

__all__ = [
    "ColumnGroup",
    "ColumnStore",
    "GroupWriter",
    "StoreError",
    "fsync_path",
    "fsync_tree",
    "write_json_atomic",
]
