"""The determinism contract at its runtime entry points.

A stochastic component built with no ``rng=``, no ``seed=`` and the
default ``deterministic=True`` must refuse to construct: that is how
``repro.determinism.resolve_rng`` keeps every run reproducible from its
seed.  ``deterministic=False`` is the documented opt-in to OS entropy.
"""

import numpy as np
import pytest

from repro.galvo import GalvoHardware, canonical_gma
from repro.geometry import Pose
from repro.vrh import VrhTracker

IDENTITY = Pose(np.zeros(3), np.eye(3))

COMPONENTS = {
    "VrhTracker": lambda **kw: VrhTracker(IDENTITY, IDENTITY, **kw),
    "GalvoHardware": lambda **kw: GalvoHardware(
        canonical_gma(np.radians(1.0)), **kw),
}


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_unseeded_component_refuses_to_construct(name):
    with pytest.raises(ValueError, match=name):
        COMPONENTS[name]()


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_entropy_opt_in_constructs(name):
    component = COMPONENTS[name](deterministic=False)
    assert isinstance(component.rng, np.random.Generator)
