"""The determinism contract at its runtime entry points.

A stochastic component built with no ``rng=`` (or ``rng=None``) must
refuse to construct, naming itself, and ``repro.determinism.resolve_rng``
refuses ``seed=None``: that is how every run stays reproducible from
its seed.  There is no OS-entropy opt-in.
"""

import numpy as np
import pytest

from repro.determinism import resolve_rng
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
    with pytest.raises(ValueError, match=name):
        COMPONENTS[name](rng=None)


def test_resolve_rng_refuses_a_missing_seed():
    with pytest.raises(ValueError, match="Owner"):
        resolve_rng(None, owner="Owner")
    assert resolve_rng(5).random() == np.random.default_rng(5).random()
