"""One of each T-series violation."""

import numpy as np

from ..determinism import resolve_rng
from ..parallel import parallel_map, parallel_map_arrays


class Tracker:
    """A stochastic sink: its constructor resolves an RNG."""

    def __init__(self, rng=None, seed=None):
        self.rng = resolve_rng(rng=rng, seed=seed, owner="Tracker")


def minted():
    # T001: a generator minted outside repro.determinism.
    return np.random.default_rng(7)


def fan_out(rng, jobs):
    # T002: the callable captures a generator across the pool boundary.
    return parallel_map(lambda job: rng.normal() + job, jobs)


def fan_out_rows(rng, jobs):
    # T002: the items carry a generator across the array-pool boundary.
    return parallel_map_arrays(
        lambda pair: {"x": pair[1] + pair[0].normal()},
        [(rng, job) for job in jobs], specs={"x": ((), float)})


def build():
    # T003: a stochastic sink invoked with no rng/seed threaded.
    return Tracker()
