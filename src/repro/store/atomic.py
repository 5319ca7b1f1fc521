"""Atomic publication of small sidecar files (JSON payloads).

Every record this repo publishes next to a run (``BENCH_chaos.json``)
obeys the same crash model as the column groups: a reader either sees
the previous complete file or the new complete file, never a torn
prefix.  The recipe is the classic one: write to a same-directory
temp file, flush, ``fsync``, then ``os.replace`` onto the destination
(atomic on POSIX within one filesystem, which a same-directory sibling
guarantees).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union


def write_json_atomic(path: Union[str, Path], payload: object,
                      indent: int = 2,
                      sort_keys: bool = False) -> Path:
    """Publish ``payload`` as JSON at ``path`` all-or-nothing.

    A crash (or SIGKILL) at any point leaves either the old file or
    the new one — the temp sibling is the only casualty, and it is
    overwritten by the next attempt.  The serialized form matches the
    repo's house style: indented, trailing newline.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def fsync_path(path: Union[str, Path]) -> None:
    """``fsync`` one existing file or directory by path."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_tree(path: Union[str, Path]) -> None:
    """``fsync`` every regular file under ``path``, then ``path``.

    The durability half of the directory-level tmp→rename recipe: an
    ``os.replace`` of a directory is only crash-safe once the file
    *bytes* and the directory *entries* inside it are on disk —
    otherwise the rename can survive a crash while the renamed
    contents do not.  Call this on the tmp directory immediately
    before publishing it.
    """
    root = Path(path)
    for child in sorted(root.rglob("*")):
        if child.is_file():
            fsync_path(child)
    try:
        fsync_path(root)
    except OSError:  # platforms without directory fsync
        pass
