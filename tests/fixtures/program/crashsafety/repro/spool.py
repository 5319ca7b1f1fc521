"""One of each W-series violation, with the atomic recipe beside it."""

import json
import os


def _dump(path, payload):
    # Raw open(path, "w"): safe or not depending on what callers pass —
    # the analyzer resolves it at every call site.
    with open(path, "w") as fh:
        json.dump(payload, fh)


def publish_direct(state):
    # W001: a plain json.dump onto a published path tears under crash.
    with open("spool_summary.json", "w") as fh:
        json.dump(state, fh)


def publish_helper(state):
    # W001 (interprocedural): _dump's write resolves to a published
    # path at this call site.
    _dump("spool_counts.json", state)


def publish_unsynced(state):
    # W002: the rename publishes bytes that were never fsynced.
    tmp = "spool_index.json.tmp"
    _dump(tmp, state)
    os.replace(tmp, "spool_index.json")


def publish_atomic(state):
    # Clean: tmp sibling -> fsync -> rename, proven across _dump.
    tmp = "spool_totals.json.tmp"
    _dump(tmp, state)
    fd = os.open(tmp, os.O_RDONLY)
    os.fsync(fd)
    os.close(fd)
    os.replace(tmp, "spool_totals.json")
