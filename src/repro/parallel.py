"""Deterministic chunked process-pool mapping into named arrays.

The dataset-scale workloads (generating 500 traces, replaying each
through the Section 5.4 slot model) are embarrassingly parallel: every
item is pure and independent.  :func:`parallel_map_arrays`, which both
batch engines use, gives them three properties:

* **Determinism.**  The chunking depends only on ``chunk_size`` and
  every chunk's rows land at their absolute indices, so ``workers=8``
  produces the exact bytes ``workers=1`` does.
* **One transport.**  Each chunk crosses to a worker once and its rows
  come back once, through the pool's ordinary pickled results.
* **Graceful serial fallback.**  ``workers=1`` never touches
  ``multiprocessing``; and if a pool cannot be used at all (sandboxed
  environment, unpicklable callable, broken pool), the map reruns
  serially in-process and emits a single
  :class:`ParallelFallbackWarning` so the degradation is observable
  without changing the result.  The fallback re-evaluates from
  scratch, which is safe because callers pass pure functions.
"""

from __future__ import annotations

import warnings
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, TypeVar, Union)

import numpy as np

_Item = TypeVar("_Item")

#: One output column: (trailing per-item shape, dtype).  The allocated
#: array is ``(len(items), *shape)``.
ArraySpec = Tuple[Tuple[int, ...], Union[str, np.dtype, type]]


class ParallelFallbackWarning(RuntimeWarning):
    """A process pool could not be used; the map ran serially.

    The result is identical (the callers pass pure functions), only
    slower — this warning makes the silent degradation observable so
    benchmarks and CI can record it instead of mistaking a sandboxed
    serial run for a parallel one.
    """


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


def _write_rows(outputs: Dict[str, np.ndarray],
                chunks: Sequence[Sequence],
                per_chunk: Iterable[Mapping[str, np.ndarray]]) -> None:
    """Write each chunk's ``{name: rows}`` at its absolute row indices."""
    start = 0
    for chunk, rows in zip(chunks, per_chunk):
        stop = start + len(chunk)
        for name, array in outputs.items():
            array[start:stop] = rows[name]
        start = stop


def parallel_map_arrays(fn: Callable[[Sequence], Mapping[str, np.ndarray]],
                        items: Sequence,
                        specs: Mapping[str, ArraySpec],
                        chunk_size: int,
                        workers: Optional[int] = None
                        ) -> Dict[str, np.ndarray]:
    """Map ``fn`` over ``items`` chunk by chunk, into named arrays.

    ``items`` is split into contiguous chunks of ``chunk_size``;
    ``fn(chunk)`` receives one chunk (a list) and returns
    ``{name: stacked_rows}`` for every name in ``specs``, one row per
    item — the hook that lets the tensor engines (``generate_batch``/
    ``simulate_batch``) run one vectorized pass per chunk.  Row ``i``
    of each ``(len(items), *shape)`` output array is the result for
    ``items[i]``.

    ``workers=None`` (or ``1``) runs the chunks serially in-process.
    ``workers>1`` fans them over a process pool (never more workers
    than chunks); ``fn`` must then be picklable, e.g. a module-level
    function or a ``functools.partial`` of one.  Either way the rows
    land at the same absolute indices, so the output bytes are
    identical for any ``workers`` setting.
    """
    items = list(items)
    chunks = chunk_items(items, chunk_size)
    outputs = {name: np.empty((len(items),) + tuple(shape),
                              dtype=np.dtype(dtype))
               for name, (shape, dtype) in specs.items()}
    if workers is None:
        workers = 1
    if workers < 1:
        raise ValueError("workers must be at least 1")
    workers = min(workers, len(chunks))
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                _write_rows(outputs, chunks, pool.map(fn, chunks))
            return outputs
        except Exception as exc:
            # Pool unavailable (no fork/spawn permitted, unpicklable
            # fn, worker crash, ...): fall back to the serial path.
            warnings.warn(
                "parallel_map_arrays: process pool unavailable "
                f"({type(exc).__name__}: {exc}); re-ran serially "
                "in-process (results are identical, only slower)",
                ParallelFallbackWarning, stacklevel=2)
    _write_rows(outputs, chunks, map(fn, chunks))
    return outputs
