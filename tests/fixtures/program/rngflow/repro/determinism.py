"""Fixture copy of the determinism contract (the sanctioned mint)."""

import numpy as np


def resolve_rng(seed, owner="component"):
    if seed is None:
        raise ValueError(owner)
    return np.random.default_rng(seed)


def spawn(rng):
    return np.random.default_rng(rng.integers(2 ** 63))


def derive(*keys):
    return np.random.default_rng(np.random.SeedSequence(list(keys)))
