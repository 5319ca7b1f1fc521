"""The shared-memory array transport (``parallel_map_arrays``)."""

import concurrent.futures
import warnings

import numpy as np
import pytest

from repro.parallel import ParallelFallbackWarning, parallel_map_arrays


def row_fn(x):
    """Module-level so it pickles into pool workers."""
    return {"sq": np.array([x * x, x * x + 1.0]),
            "neg": np.array([-float(x)])}


def batch_fn(items):
    xs = np.asarray(items, dtype=float)
    return {"sq": np.stack([xs * xs, xs * xs + 1.0], axis=1),
            "neg": -xs[:, None]}


SPECS = {"sq": ((2,), np.float64), "neg": ((1,), np.float64)}


def expected(items):
    xs = np.asarray(items, dtype=float)
    return {"sq": np.stack([xs * xs, xs * xs + 1.0], axis=1),
            "neg": -xs[:, None]}


class TestSerial:
    def test_per_item_rows(self):
        items = list(range(7))
        out = parallel_map_arrays(row_fn, items, specs=SPECS)
        want = expected(items)
        assert np.array_equal(out["sq"], want["sq"])
        assert np.array_equal(out["neg"], want["neg"])

    def test_batched_rows(self):
        items = list(range(9))
        out = parallel_map_arrays(batch_fn, items, specs=SPECS,
                                  batched=True)
        assert np.array_equal(out["sq"], expected(items)["sq"])

    def test_batched_chunking_matches_monolithic(self):
        items = list(range(11))
        whole = parallel_map_arrays(batch_fn, items, specs=SPECS,
                                    batched=True)
        chopped = parallel_map_arrays(batch_fn, items, specs=SPECS,
                                      batched=True, chunk_size=3)
        assert np.array_equal(whole["sq"], chopped["sq"])
        assert np.array_equal(whole["neg"], chopped["neg"])

    def test_empty_items(self):
        out = parallel_map_arrays(row_fn, [], specs=SPECS)
        assert out["sq"].shape == (0, 2)


class TestPooled:
    @pytest.mark.parametrize("batched,fn", [(False, row_fn),
                                            (True, batch_fn)])
    def test_pool_matches_serial_bytes(self, batched, fn):
        items = list(range(17))
        serial = parallel_map_arrays(fn, items, specs=SPECS,
                                     workers=1, batched=batched)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParallelFallbackWarning)
            pooled = parallel_map_arrays(fn, items, specs=SPECS,
                                         workers=3, chunk_size=4,
                                         batched=batched)
        assert np.array_equal(serial["sq"], pooled["sq"])
        assert np.array_equal(serial["neg"], pooled["neg"])


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            parallel_map_arrays(row_fn, [1], specs=SPECS, workers=0)


class TestObservableFallback:
    def test_exactly_one_warning_and_identical_bytes(self, monkeypatch):
        # Satellite contract: a degraded map emits ONE warning, not a
        # stream, and the fallback result is byte-identical.
        items = list(range(10))
        serial = parallel_map_arrays(row_fn, items, specs=SPECS)

        class BrokenPool:
            def __init__(self, max_workers=None):
                raise OSError("no processes allowed here")

        monkeypatch.setattr(concurrent.futures,
                            "ProcessPoolExecutor", BrokenPool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallen = parallel_map_arrays(row_fn, items, specs=SPECS,
                                         workers=4)
        fallbacks = [w for w in caught
                     if issubclass(w.category, ParallelFallbackWarning)]
        assert len(fallbacks) == 1
        assert "parallel_map_arrays" in str(fallbacks[0].message)
        assert np.array_equal(serial["sq"], fallen["sq"])
        assert np.array_equal(serial["neg"], fallen["neg"])

    def test_no_warning_on_serial_request(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parallel_map_arrays(row_fn, [1, 2], specs=SPECS, workers=1)
        assert not [w for w in caught
                    if issubclass(w.category, ParallelFallbackWarning)]
