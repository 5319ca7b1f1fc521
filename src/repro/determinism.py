"""The repo's determinism contract, in executable form.

Every stochastic component takes its randomness from an explicit
``numpy.random.Generator`` (or an explicit integer seed) threaded in by
its caller.  Nothing in ``src/repro`` mints a generator from OS
entropy: a component built without its generator or seed refuses to
construct.

``tests/test_contracts.py`` (rule T001) holds the minting half
statically: generators may be constructed only in this module.  The
per-seed byte-identity tests hold the rest.  This module is the one
sanctioned runtime implementation of the contract.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def resolve_rng(seed: Optional[int],
                owner: str = "component") -> np.random.Generator:
    """The generator for an integer ``seed``.

    ``seed=None`` raises ``ValueError`` naming ``owner``: silently
    nondeterministic components are how byte-identical-per-seed
    pipelines rot.
    """
    if seed is None:
        raise ValueError(f"{owner} needs an explicit seed=int")
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from a parent.

    The sanctioned way to hand sub-components their own streams
    without correlating draws or sharing mutable state.
    """
    return np.random.default_rng(rng.integers(2 ** 63))


def derive(*keys: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers.

    The sanctioned way to give each item of a structured sweep its own
    independent stream (``derive(seed, viewer, video)``): the keys feed
    a ``SeedSequence``, so the stream depends on the whole tuple and
    regenerating any single item needs no global draw order.
    """
    return np.random.default_rng(np.random.SeedSequence(list(keys)))
