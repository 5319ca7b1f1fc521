"""A T001 violation outside the sanctioned mint."""

import numpy as np


def minted():
    # T001: a generator minted outside repro.determinism.
    return np.random.default_rng(7)
