"""The repo's determinism contract, in executable form.

Every stochastic component takes its randomness from an explicit
``numpy.random.Generator`` (or an explicit integer seed) threaded in by
its caller.  Nothing in ``src/repro`` may mint a generator from OS
entropy unless the caller *documents* that choice by passing
``deterministic=False`` -- the escape hatch for interactive
exploration, never for pipelines that produce artifacts.

``python -m repro analyze`` (rule T001) holds the minting half
statically: generators may be constructed only in this module.  The
per-seed byte-identity tests hold the rest.  This module is the one
sanctioned runtime implementation of the contract.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def resolve_rng(rng: Optional[np.random.Generator] = None,
                seed: Optional[int] = None,
                deterministic: bool = True,
                owner: str = "component") -> np.random.Generator:
    """Resolve the (rng, seed, deterministic) triple to a Generator.

    Precedence: an explicit ``rng`` wins; else ``seed`` builds one;
    else ``deterministic=False`` opts into OS entropy.  With neither an
    rng, a seed, nor the opt-in, raises ``ValueError`` -- silently
    nondeterministic components are how byte-identical-per-seed
    pipelines rot.
    """
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    if deterministic:
        raise ValueError(
            f"{owner} needs an explicit rng=np.random.Generator or "
            f"seed=int; pass deterministic=False to opt into an "
            f"OS-entropy generator (irreproducible runs)")
    # The documented opt-in: the caller asked for fresh entropy.
    return np.random.default_rng()


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
