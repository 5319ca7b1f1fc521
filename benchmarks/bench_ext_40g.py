"""Extension bench: 40G multi-wavelength feasibility (Section 6).

"For higher-bandwidth (40Gbps+) links, our designed TP mechanism
remains unchanged; however, the link would likely need customized
collimators that can efficiently capture a range of wavelengths."
The bench quantifies that sentence: how much movement tolerance (and
therefore tolerated head speed) the chromatic penalty of commodity
collimators costs a CWDM4 40G link, and at what chromatic coefficient
the outer lanes stop closing at all.
"""

from dataclasses import replace

import numpy as np

from repro.analysis import angular_speed_limit_rad_s, inputs_for
from repro.link import (
    MultiWavelengthDesign,
    link_25g,
    link_40g_commodity,
    link_40g_custom,
)
from repro.reporting import TextTable, fmt_float

CHROMA_DB_PER_NM = (0.015, 0.06, 0.12, 0.20, 0.30)


def tolerated_speed_deg_s(design: MultiWavelengthDesign) -> float:
    """Closed-form tolerated rotation speed for the worst lane."""
    inputs = replace(inputs_for(design.base),
                     margin_db=design.worst_lane_margin_db())
    return float(np.degrees(angular_speed_limit_rad_s(inputs)))


def chroma_sweep():
    rows = []
    for chroma in CHROMA_DB_PER_NM:
        design = MultiWavelengthDesign(
            name=f"40G @ {chroma} dB/nm", base=link_25g(),
            chromatic_db_per_nm=chroma)
        rows.append((chroma, design.worst_lane_margin_db(),
                     design.worst_lane_angular_tolerance_rad(),
                     tolerated_speed_deg_s(design)))
    return rows


def test_ext_40g(benchmark):
    rows = benchmark(chroma_sweep)
    table = TextTable(["chroma (dB/nm)", "worst-lane margin (dB)",
                       "RX tol (mrad)", "tolerated speed (deg/s)"])
    for chroma, margin, tol, speed in rows:
        table.add_row(fmt_float(chroma, 3), fmt_float(margin, 1),
                      fmt_float(tol * 1e3, 2), fmt_float(speed, 0))
    print("\nExtension -- 40G CWDM4 vs collimator chromatic quality "
          "(Section 6)")
    print(table.render())

    commodity = link_40g_commodity()
    custom = link_40g_custom()
    print(f"commodity: tolerated {tolerated_speed_deg_s(commodity):.0f}"
          f" deg/s; custom: {tolerated_speed_deg_s(custom):.0f} deg/s; "
          f"single-wavelength 25G baseline: "
          f"{tolerated_speed_deg_s(MultiWavelengthDesign(name='1x', base=link_25g(), chromatic_db_per_nm=0.0)):.0f} deg/s")

    # Shape 1: every step of chromatic loss costs margin, tolerance,
    # and tolerated speed, monotonically.
    margins = [r[1] for r in rows]
    speeds = [r[3] for r in rows]
    assert all(b < a for a, b in zip(margins, margins[1:]))
    assert all(b <= a for a, b in zip(speeds, speeds[1:]))
    # Shape 2: a bad-enough singlet kills the outer lanes entirely.
    assert margins[-1] < 0 or speeds[-1] == 0.0
    # Shape 3: the custom collimator nearly recovers the
    # single-wavelength design's tolerated speed (within ~10 %).
    single = MultiWavelengthDesign(name="1x", base=link_25g(),
                                   chromatic_db_per_nm=0.0)
    assert tolerated_speed_deg_s(custom) > \
        0.9 * tolerated_speed_deg_s(single)
    # Shape 4: commodity pays a double-digit-percent speed penalty.
    assert tolerated_speed_deg_s(commodity) < \
        0.9 * tolerated_speed_deg_s(single)
