"""Unit tests for the deterministic chunked process-pool map."""

import concurrent.futures

import pytest

from repro.determinism import derive
from repro.parallel import (
    chunk_items,
    default_workers,
    parallel_map,
)


def square(x):
    """Module-level so it pickles into pool workers."""
    return x * x


def explode(x):
    raise RuntimeError("worker failure")


def noisy_sum(seed):
    """A float pipeline whose bits would expose any stream fork."""
    return float(derive(seed).standard_normal(8).sum())


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
        assert parallel_map(square, items, workers=1) == \
            [x * x for x in items]

    def test_none_workers_is_serial(self):
        assert parallel_map(square, [3, 4], workers=None) == [9, 16]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            parallel_map(square, [1], workers=0)

    def test_empty_items(self):
        assert parallel_map(square, [], workers=4) == []

    def test_parallel_preserves_order(self):
        items = list(range(40))
        assert parallel_map(square, items, workers=3) == \
            [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(23))
        assert parallel_map(square, items, workers=4) == \
            parallel_map(square, items, workers=1)

    def test_explicit_chunk_size(self):
        items = list(range(11))
        assert parallel_map(square, items, workers=2, chunk_size=2) == \
            [x * x for x in items]

    def test_lambda_falls_back_to_serial(self):
        # Lambdas do not pickle; the map must still return the right
        # answer via the in-process fallback.
        items = list(range(10))
        assert parallel_map(lambda x: x + 1, items, workers=4) == \
            [x + 1 for x in items]

    def test_serial_path_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            parallel_map(explode, [1], workers=1)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestDefaultWorkers:
    """The worker-count resolution ladder: env var, affinity, cpus."""

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            default_workers()

    def test_env_override_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            default_workers()

    def test_respects_affinity_mask(self, monkeypatch):
        # Containers pin processes to a core subset; cpu_count alone
        # would oversubscribe the pool.
        import os
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no scheduler affinity")
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3, 4})
        assert default_workers() == 5

    def test_ladder_order_env_beats_affinity_beats_cpu_count(
            self, monkeypatch):
        # The full ladder, each rung distinct so order is observable:
        # REPRO_WORKERS=2 > affinity mask of 5 > cpu_count of 7.
        import os
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no scheduler affinity")
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3, 4})
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert default_workers() == 2  # env wins over both
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() == 5  # affinity wins over cpu_count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_workers() == 7  # cpu_count is the last rung


class TestSerialFallback:
    """The silent serial fallback, proven rather than assumed."""

    def test_lambda_fallback_runs_in_this_process(self):
        # A lambda cannot reach the workers, so every call must land
        # in the parent process -- observable through a closure.
        calls = []

        def tag(x):
            calls.append(x)
            return x + 1

        items = list(range(10))
        assert parallel_map(tag, items, workers=4) == \
            [x + 1 for x in items]
        assert calls == items  # in order, once each, in-process

    def test_broken_pool_falls_back(self, monkeypatch):
        attempts = []

        class BrokenPool:
            def __init__(self, max_workers=None):
                attempts.append(max_workers)
                raise OSError("no processes allowed here")

        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", BrokenPool)
        items = list(range(12))
        assert parallel_map(square, items, workers=4) == \
            [x * x for x in items]
        assert attempts  # the pool WAS attempted: fallback exercised

    def test_pool_that_dies_mid_map_falls_back(self, monkeypatch):
        class DyingPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                raise concurrent.futures.process.BrokenProcessPool(
                    "worker crashed")

        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", DyingPool)
        items = list(range(7))
        assert parallel_map(square, items, workers=2) == \
            [x * x for x in items]

    def test_fallback_is_byte_identical_to_serial(self, monkeypatch):
        seeds = list(range(20))
        serial = parallel_map(noisy_sum, seeds, workers=1)

        class BrokenPool:
            def __init__(self, max_workers=None):
                raise OSError("no processes allowed here")

        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", BrokenPool)
        fallen_back = parallel_map(noisy_sum, seeds, workers=4)
        assert fallen_back == serial  # exact float equality, not approx


def square_row(x):
    """Row fn for the array transport tests below."""
    return {"y": float(x * x)}


class TestPooledCleanup:
    """The shm teardown in ``_fill_pooled`` catches only OSError now
    (a crashed worker's atexit hooks racing the parent's cleanup);
    anything else must propagate.  This pins the tolerated path."""

    def test_cleanup_survives_already_unlinked_blocks(self, monkeypatch):
        import numpy as np

        from repro import parallel as par

        created = []
        real_create = par._create_shm

        def recording_create(array):
            handle, record = real_create(array)
            created.append(record[0])
            return handle, record

        monkeypatch.setattr(par, "_create_shm", recording_create)

        class EagerUnlinkPool:
            """In-process stand-in whose teardown unlinks the shared
            blocks before the parent's own cleanup gets to them."""

            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

            def __exit__(self, *exc):
                for block in created:
                    block.unlink()
                return False

        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", EagerUnlinkPool)
        items = list(range(8))
        outputs = par._allocate_outputs(
            len(items), {"y": ((), np.float64)})
        # Direct call: parallel_map_arrays would mask a cleanup crash
        # behind its serial fallback, and this must NOT fall back.
        par._fill_pooled(square_row, items, outputs, workers=2,
                         chunk_size=None, batched=False)
        assert created, "shared blocks were never allocated"
        assert outputs["y"].tolist() == [float(x * x) for x in items]
