"""Fig. 3: CDFs of VRH linear and angular speeds during normal use.

Paper: "during normal use, the angular and linear speeds of a VRH were
at most 19 deg/s and 14 cm/s respectively."  Regenerated from the
NORMAL_USE synthetic traces; the printed series are the CDF curves.
"""

import numpy as np

from repro import constants
from repro.motion import NORMAL_USE, cdf, generate_batch, measure_trace
from repro.reporting import TextTable, fmt_float

PERCENTILES = (10, 25, 50, 75, 90, 95, 99, 100)


def speed_samples():
    batch = generate_batch(viewers=15, videos=6, profile=NORMAL_USE)
    series = [measure_trace(t) for t in batch.traces()]
    linear = np.concatenate([s.linear_m_s for s in series])
    angular = np.concatenate([s.angular_deg_s for s in series])
    return linear, angular


def test_fig3_speed_cdfs(benchmark):
    linear, angular = speed_samples()
    lin_values, lin_fractions = benchmark(cdf, linear)
    ang_values, ang_fractions = cdf(angular)

    table = TextTable(["percentile", "linear cm/s", "angular deg/s"])
    for p in PERCENTILES:
        table.add_row(f"p{p}",
                      fmt_float(np.percentile(linear, p) * 100.0),
                      fmt_float(np.percentile(angular, p)))
    print("\nFig. 3 -- VRH speed CDFs during normal use "
          "(paper maxima: 14 cm/s, 19 deg/s)")
    print(table.render())

    # Shape assertions: the paper's "at most" bounds.
    assert lin_values[-1] <= constants.REQUIRED_LINEAR_SPEED_M_S * 1.25
    assert ang_values[-1] <= constants.REQUIRED_ANGULAR_SPEED_DEG_S * 1.15
    # The CDFs are proper CDFs.
    assert lin_fractions[-1] == 1.0
    assert np.all(np.diff(lin_values) >= 0)
    assert np.all(np.diff(ang_values) >= 0)
    # Most time is spent nearly still (the paper's curves rise fast).
    assert np.percentile(angular, 50) < 5.0
