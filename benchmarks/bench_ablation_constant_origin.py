"""Ablation: constant-origin GMA model (footnote 6 / the distortion
effect).

"In simpler applications ... p may be assumed to be a constant, but
in reality it depends on the voltages -- this dependence results in
distortion and needs to be considered for high accuracy."
"""

import numpy as np

from repro.baselines import ConstantOriginModel
from repro.core import GmaModel
from repro.galvo import canonical_gma
from repro.reporting import TextTable, fmt_float

#: The board: the plane z = 1.5 m (a point on it and its unit normal).
BOARD_POINT = np.array([0.0, 0.0, 1.5])
BOARD_NORMAL = np.array([0.0, 0.0, 1.0])


def distortion_profile():
    model = GmaModel(canonical_gma(np.radians(1.0)))
    ablated = ConstantOriginModel(model)
    return {v: ablated.board_error_m(v, v, BOARD_POINT, BOARD_NORMAL)
            for v in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)}


def test_ablation_constant_origin(benchmark):
    errors = benchmark(distortion_profile)
    table = TextTable(["voltage (V)", "steering (deg opt)",
                       "const-origin error (mm)"])
    for v, err in errors.items():
        table.add_row(fmt_float(v, 1), fmt_float(2 * v, 0),
                      fmt_float(err * 1e3, 3))
    print("\nAblation -- cost of assuming a constant beam origin "
          "(footnote 6)")
    print(table.render())

    values = list(errors.values())
    # Exact at rest, growing with steering angle.
    assert values[0] < 1e-12
    assert all(b >= a for a, b in zip(values, values[1:]))
    # At the cone edge the error is comparable to the paper's whole
    # accuracy budget (millimetres) -- which is why Cyclops models it.
    assert values[-1] > 0.5e-3
