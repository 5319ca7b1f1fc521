"""Unit tests for the deterministic chunked process-pool map.

``parallel_map_arrays`` over one scalar column, so every check reads
as ``[fn(x) for x in items]``; ``test_parallel_arrays`` covers the
multi-column, multi-dimensional rows.
"""

import concurrent.futures
import warnings

import numpy as np
import pytest

from repro.determinism import derive
from repro.parallel import (
    ParallelFallbackWarning,
    chunk_items,
    parallel_map_arrays,
)

SPEC = {"y": ((), np.int64)}
FLOAT_SPEC = {"y": ((), np.float64)}


def square(chunk):
    """Module-level so it pickles into pool workers."""
    return {"y": np.square(np.asarray(chunk, dtype=np.int64))}


def explode(chunk):
    raise RuntimeError("worker failure")


def noisy_sum(chunk):
    """A float pipeline whose bits would expose any stream fork."""
    return {"y": np.array([derive(seed).standard_normal(8).sum()
                           for seed in chunk])}


def squares(items, workers, chunk_size=3, fn=square):
    return parallel_map_arrays(fn, items, specs=SPEC,
                               chunk_size=chunk_size,
                               workers=workers)["y"].tolist()


class TestChunking:
    def test_chunks_concatenate_to_input(self):
        items = list(range(17))
        chunks = chunk_items(items, 5)
        assert [len(c) for c in chunks] == [5, 5, 5, 2]
        assert [x for c in chunks for x in c] == items

    def test_single_chunk(self):
        assert chunk_items([1, 2], 10) == [[1, 2]]

    def test_empty(self):
        assert chunk_items([], 3) == []

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_items([1], 0)


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(25))
        assert squares(items, workers=1) == [x * x for x in items]

    def test_none_workers_is_serial(self):
        assert squares([3, 4], workers=None) == [9, 16]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            squares([1], workers=0)

    def test_empty_items(self):
        assert squares([], workers=4) == []

    def test_parallel_preserves_order(self):
        items = list(range(40))
        with warnings.catch_warnings():
            # A fallback would prove nothing about the pool's order.
            warnings.simplefilter("error", ParallelFallbackWarning)
            assert squares(items, workers=3) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(23))
        assert squares(items, workers=4) == squares(items, workers=1)

    def test_explicit_chunk_size(self):
        items = list(range(11))
        assert squares(items, workers=2, chunk_size=2) == \
            [x * x for x in items]

    def test_lambda_falls_back_to_serial(self):
        # Lambdas do not pickle; the map must still return the right
        # answer via the in-process fallback.
        items = list(range(10))
        with pytest.warns(ParallelFallbackWarning):
            got = squares(items, workers=4,
                          fn=lambda chunk: {"y": np.add(chunk, 1)})
        assert got == [x + 1 for x in items]

    def test_serial_path_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            squares([1], workers=1, fn=explode)


class TestSerialFallback:
    """The serial fallback, proven rather than assumed."""

    def test_lambda_fallback_runs_in_this_process(self):
        # A closure cannot reach the workers, so every chunk must land
        # in the parent process -- observable through the closure.
        calls = []

        def tag(chunk):
            calls.append(list(chunk))
            return {"y": np.add(chunk, 1)}

        items = list(range(10))
        with pytest.warns(ParallelFallbackWarning):
            assert squares(items, workers=4, fn=tag) == \
                [x + 1 for x in items]
        assert calls == chunk_items(items, 3)  # in order, once each

    def test_broken_pool_falls_back(self, monkeypatch):
        attempts = []

        class BrokenPool:
            def __init__(self, max_workers=None):
                attempts.append(max_workers)
                raise OSError("no processes allowed here")

        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", BrokenPool)
        items = list(range(12))
        with pytest.warns(ParallelFallbackWarning):
            assert squares(items, workers=4) == [x * x for x in items]
        assert attempts == [4]  # the pool WAS attempted

    def test_pool_that_dies_mid_map_falls_back(self, monkeypatch):
        class DyingPool:
            """Delivers a wrong first chunk, then its workers crash."""

            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                yield {"y": np.full(len(chunks[0]), -1)}
                raise concurrent.futures.process.BrokenProcessPool(
                    "worker crashed")

        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", DyingPool)
        items = list(range(7))
        # The serial rerun overwrites the rows the pool had written.
        with pytest.warns(ParallelFallbackWarning):
            assert squares(items, workers=2) == [x * x for x in items]

    def test_fallback_is_byte_identical_to_serial(self, monkeypatch):
        seeds = list(range(20))
        serial = parallel_map_arrays(noisy_sum, seeds, specs=FLOAT_SPEC,
                                     chunk_size=3, workers=1)

        class BrokenPool:
            def __init__(self, max_workers=None):
                raise OSError("no processes allowed here")

        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", BrokenPool)
        with pytest.warns(ParallelFallbackWarning):
            fallen_back = parallel_map_arrays(
                noisy_sum, seeds, specs=FLOAT_SPEC, chunk_size=3,
                workers=4)
        assert fallen_back["y"].tobytes() == serial["y"].tobytes()
