"""Deterministic chunked process-pool mapping.

The dataset-scale workloads (generating 500 traces, replaying each
through the Section 5.4 slot model, sweeping calibration seeds) are
embarrassingly parallel: every item is pure and independent.  This
module provides the two primitives they share — ``parallel_map`` for
object results and ``parallel_map_arrays`` for fixed-shape array
results — with three properties the callers rely on:

* **Determinism.**  Results come back in input order regardless of the
  worker count or chunking, so ``workers=8`` produces the exact same
  output ``workers=1`` does.
* **Chunked dispatch.**  Items are grouped into contiguous chunks
  (several chunks per worker, so stragglers rebalance) and each chunk
  crosses the process boundary once, amortizing pickling overhead.
* **Graceful serial fallback.**  ``workers=1`` never touches
  ``multiprocessing``; and if a pool cannot be used at all (sandboxed
  environment, unpicklable callable, broken pool), the map reruns
  serially in-process and emits a single
  :class:`ParallelFallbackWarning` so the degradation is observable
  without changing the result.  The fallback re-evaluates from
  scratch, which is safe because callers pass pure functions.

``parallel_map`` returns a list and pays one pickle round-trip per
chunk of results.  ``parallel_map_arrays`` removes that cost for the
hot tensor pipelines: the caller declares named output arrays with one
row per item, the parent maps them into ``multiprocessing.
shared_memory``, and workers write their rows directly into the shared
buffers — only the item chunks cross the process boundary, never the
results.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: How many chunks to aim for per worker; >1 so uneven chunk runtimes
#: rebalance across the pool instead of serializing on the slowest.
_CHUNKS_PER_WORKER = 4

#: Environment variable overriding :func:`default_workers`.
WORKERS_ENV = "REPRO_WORKERS"


class ParallelFallbackWarning(RuntimeWarning):
    """A process pool could not be used; the map ran serially.

    The result is identical (the callers pass pure functions), only
    slower — this warning makes the silent degradation observable so
    benchmarks and CI can record it instead of mistaking a sandboxed
    serial run for a parallel one.
    """


def default_workers() -> int:
    """A sensible worker count for this machine (>= 1).

    Respects, in order: the ``REPRO_WORKERS`` environment variable
    (explicit operator override), the scheduler affinity mask (cgroup
    / container CPU limits, ``taskset``), and finally the raw CPU
    count.  ``os.cpu_count`` alone over-reports inside containers
    pinned to a subset of cores, which oversubscribes the pool.
    """
    override = os.environ.get(WORKERS_ENV)
    if override is not None:
        try:
            workers = int(override)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {override!r}")
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {workers}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def chunk_items(items: Sequence[_Item],
                chunk_size: int) -> List[Sequence[_Item]]:
    """Split ``items`` into contiguous chunks of ``chunk_size``.

    The last chunk may be short.  Concatenating the chunks in order
    reproduces ``items`` exactly — this is what makes the parallel map
    order-deterministic.
    """
    if chunk_size < 1:
        raise ValueError("chunk size must be at least 1")
    return [items[i:i + chunk_size]
            for i in range(0, len(items), chunk_size)]


def _resolve_chunk_size(n_items: int, workers: int,
                        chunk_size: Optional[int]) -> int:
    if chunk_size is not None:
        return chunk_size
    return max(1, math.ceil(n_items / (workers * _CHUNKS_PER_WORKER)))


def _warn_fallback(kind: str, reason: BaseException) -> None:
    """One observable warning per degraded map call."""
    warnings.warn(
        f"{kind}: process pool unavailable "
        f"({type(reason).__name__}: {reason}); re-ran serially "
        "in-process (results are identical, only slower)",
        ParallelFallbackWarning, stacklevel=3)


def _apply_chunk(fn: Callable[[_Item], _Result],
                 chunk: Sequence[_Item]) -> List[_Result]:
    """Worker-side body: evaluate one chunk (module-level: picklable)."""
    return [fn(item) for item in chunk]


def parallel_map(fn: Callable[[_Item], _Result],
                 items: Sequence[_Item],
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None) -> List[_Result]:
    """``[fn(x) for x in items]``, optionally across processes.

    ``workers=None`` or ``1`` runs serially in-process.  ``workers>1``
    fans the chunks out over a process pool and merges the results back
    in input order.  ``fn`` must be pure (the serial fallback may
    re-evaluate it) and, for ``workers>1``, picklable along with the
    items; a module-level function or ``functools.partial`` of one
    qualifies.  A lambda simply degrades to the serial path (with one
    :class:`ParallelFallbackWarning`).
    """
    items = list(items)
    if workers is None:
        workers = 1
    if workers < 1:
        raise ValueError("workers must be at least 1")
    workers = min(workers, len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]

    chunks = chunk_items(items, _resolve_chunk_size(len(items), workers,
                                                    chunk_size))
    try:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(_apply_chunk,
                                      [fn] * len(chunks), chunks))
    except Exception as exc:
        # Pool unavailable (no fork/spawn permitted, unpicklable fn,
        # worker crash, ...): fall back to the serial path.
        _warn_fallback("parallel_map", exc)
        return [fn(item) for item in items]
    return [result for chunk in per_chunk for result in chunk]


# ---------------------------------------------------------------------------
# Shared-memory array transport
# ---------------------------------------------------------------------------

#: One output column: (trailing per-item shape, dtype).  The allocated
#: array is ``(len(items), *shape)``.
ArraySpec = Tuple[Tuple[int, ...], Union[str, np.dtype, type]]

#: Worker-side handle for one output array: the SharedMemory block
#: name, the array shape and the dtype string.
_Handle = Tuple[str, Tuple[int, ...], str]


def _attach_output(handle: _Handle):
    """Open one output array inside a worker. Returns (array, block)."""
    from multiprocessing import shared_memory
    name, shape, dtype = handle
    block = shared_memory.SharedMemory(name=name)
    array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
    return array, block


def _fill_chunk(fn: Callable, chunk: Sequence, start: int,
                handles: Dict[str, _Handle], batched: bool) -> int:
    """Worker-side body: write one chunk's rows into the shared outputs.

    Returns the number of rows written (a tiny ack instead of the data
    itself — the whole point of the array transport).
    """
    attached = {name: _attach_output(handle)
                for name, handle in handles.items()}
    try:
        if batched:
            rows = fn(list(chunk))
            for name, (array, _) in attached.items():
                array[start:start + len(chunk)] = rows[name]
        else:
            for offset, item in enumerate(chunk):
                row = fn(item)
                for name, (array, _) in attached.items():
                    array[start + offset] = row[name]
    finally:
        # Views into the shared block must be dropped before closing.
        for name in list(attached):
            array, block = attached.pop(name)
            del array
            block.close()
    return len(chunk)


def _fill_serial(fn: Callable, items: Sequence,
                 outputs: Dict[str, np.ndarray], batched: bool,
                 chunk_size: Optional[int] = None) -> None:
    if batched:
        # Honor the chunk size serially too: batched engines get the
        # same scratch-buffer working-set bound a pool worker would
        # (large monolithic passes thrash fresh pages; modest chunks
        # let the allocator recycle warm ones between iterations).
        start = 0
        for chunk in chunk_items(items, chunk_size or max(1, len(items))):
            rows = fn(list(chunk))
            for name, array in outputs.items():
                array[start:start + len(chunk)] = rows[name]
            start += len(chunk)
        return
    for index, item in enumerate(items):
        row = fn(item)
        for name, array in outputs.items():
            array[index] = row[name]


def _allocate_outputs(n_items: int,
                      specs: Mapping[str, ArraySpec]
                      ) -> Dict[str, np.ndarray]:
    outputs: Dict[str, np.ndarray] = {}
    for name, (shape, dtype) in specs.items():
        outputs[name] = np.empty((n_items,) + tuple(shape),
                                 dtype=np.dtype(dtype))
    return outputs


def parallel_map_arrays(fn: Callable,
                        items: Sequence,
                        specs: Mapping[str, ArraySpec],
                        workers: Optional[int] = None,
                        chunk_size: Optional[int] = None,
                        batched: bool = False) -> Dict[str, np.ndarray]:
    """Map ``fn`` over ``items``, collecting rows of named arrays.

    ``fn(item)`` returns ``{name: row}`` for every name in ``specs``;
    row ``i`` of each ``(len(items), *shape)`` output array is the
    result for ``items[i]``.  With ``batched=True``, ``fn`` instead
    receives a *list* of items and returns ``{name: stacked_rows}`` —
    the hook that lets tensor engines (``generate_batch``/
    ``simulate_batch``) run one vectorized pass per chunk inside each
    worker.

    ``workers=None`` (or ``1``) runs serially; size a real pool with
    :func:`default_workers`, which resolves ``REPRO_WORKERS`` → the
    scheduler affinity mask → ``os.cpu_count()``, in that order.
    ``workers>1`` ships only the item chunks to the pool; the output
    rows travel through ``multiprocessing.shared_memory``, never
    through pickle.  The chunking is identical to :func:`parallel_map`,
    the rows land at absolute indices, and the serial fallback fills
    the same arrays in-process — so the output bytes are identical for
    any ``workers`` setting.
    """
    items = list(items)
    outputs = _allocate_outputs(len(items), specs)
    if workers is None:
        workers = 1
    if workers < 1:
        raise ValueError("workers must be at least 1")
    workers = min(workers, len(items)) if items else 1
    if workers <= 1 or not items:
        _fill_serial(fn, items, outputs, batched, chunk_size)
        return outputs

    try:
        _fill_pooled(fn, items, outputs, workers, chunk_size, batched)
    except Exception as exc:
        _warn_fallback("parallel_map_arrays", exc)
        _fill_serial(fn, items, outputs, batched, chunk_size)
    return outputs


def _fill_pooled(fn: Callable, items: Sequence,
                 outputs: Dict[str, np.ndarray], workers: int,
                 chunk_size: Optional[int], batched: bool) -> None:
    """Fan chunks over a pool, outputs via shared memory."""
    from concurrent.futures import ProcessPoolExecutor

    handles: Dict[str, _Handle] = {}
    blocks = []     # (SharedMemory, target ndarray, shm ndarray)
    try:
        for name, array in outputs.items():
            handles[name], record = _create_shm(array)
            blocks.append(record)

        chunks = chunk_items(items, _resolve_chunk_size(
            len(items), workers, chunk_size))
        starts = [0] * len(chunks)
        for index in range(1, len(chunks)):
            starts[index] = starts[index - 1] + len(chunks[index - 1])
        with ProcessPoolExecutor(max_workers=workers) as pool:
            written = list(pool.map(
                _fill_chunk, [fn] * len(chunks), chunks, starts,
                [handles] * len(chunks), [batched] * len(chunks)))
        if sum(written) != len(items):  # pragma: no cover - paranoia
            raise RuntimeError("pool wrote an unexpected row count")
        # Bulk-copy shm blocks into the caller-visible arrays (one
        # memcpy; the rows themselves never crossed through pickle).
        for block, target, mirror in blocks:
            target[:] = mirror
    finally:
        for block, target, mirror in blocks:
            del mirror
            try:
                block.close()
                block.unlink()
            except OSError:
                # Already closed/unlinked (a crashed worker's atexit
                # hooks race this cleanup); nothing left to release.
                pass


def _create_shm(array: np.ndarray):
    """Allocate one shared block mirroring ``array``."""
    from multiprocessing import shared_memory
    nbytes = max(1, int(array.nbytes))
    block = shared_memory.SharedMemory(create=True, size=nbytes)
    mirror = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
    handle: _Handle = (block.name, tuple(array.shape), array.dtype.str)
    return handle, (block, array, mirror)
