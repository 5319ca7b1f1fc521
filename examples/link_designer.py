"""Link-design exploration: reproduce the Section 5.1 design study.

Compares the collimated and diverging options (Table 1), sweeps the
beam diameter at RX to find the optimal 16 mm operating point
(Fig. 11), and prints the full link budget of the chosen design::

    python examples/link_designer.py
"""

import numpy as np

from repro.link import (
    diameter_sweep,
    evaluate,
    link_10g_collimated,
    link_10g_diverging,
    link_25g,
)
from repro.reporting import TextTable, fmt_float


def table1():
    print("Step 1 -- collimated vs diverging (Table 1, 20 mm at RX)")
    table = TextTable(["design", "TX tol (mrad)", "RX tol (mrad)",
                       "lateral tol (mm)", "peak (dBm)"])
    for design in (link_10g_collimated(20e-3), link_10g_diverging(20e-3)):
        r = evaluate(design)
        table.add_row(design.name,
                      fmt_float(r.tx_angular_tolerance_rad * 1e3),
                      fmt_float(r.rx_angular_tolerance_rad * 1e3),
                      fmt_float(r.lateral_tolerance_m * 1e3, 1),
                      fmt_float(r.peak_power_dbm, 1))
    print(table.render())
    print("-> the diverging beam trades ~25 dB of power for several-"
          "fold\n   movement tolerance; Cyclops needs the tolerance.\n")


def fig11():
    print("Step 2 -- choosing the beam diameter at RX (Fig. 11)")
    diameters = np.arange(8e-3, 33e-3, 4e-3)
    table = TextTable(["beam at RX (mm)", "RX tol (mrad)",
                       "TX tol (mrad)"])
    best, best_tol = None, -1.0
    for r in diameter_sweep(link_10g_diverging, diameters, 1.75):
        table.add_row(fmt_float(r.beam_diameter_at_rx_m * 1e3, 0),
                      fmt_float(r.rx_angular_tolerance_rad * 1e3),
                      fmt_float(r.tx_angular_tolerance_rad * 1e3))
        if r.rx_angular_tolerance_rad > best_tol:
            best_tol = r.rx_angular_tolerance_rad
            best = r.beam_diameter_at_rx_m
    print(table.render())
    print(f"-> RX angular tolerance peaks near "
          f"{best * 1e3:.0f} mm; the paper picks 16 mm.\n")


def budgets():
    print("Step 3 -- link budgets of the final designs")
    for design in (link_10g_diverging(), link_25g()):
        print(f"\n{design.name} at 1.75 m "
              f"(sensitivity {design.sfp.rx_sensitivity_dbm:.0f} dBm):")
        running = design.sfp.tx_power_dbm
        print(f"{'TX power':24s} {running:+8.2f} dBm")
        for name, gain in (
                ("amplifier", design.amplifier.gain_db),
                ("insertion/mode loss", -design.fixed_loss_db),
                ("defocus blur", -design.blur_loss_db(1.75)),
                ("aperture capture", -design.capture_loss_db(1.75))):
            running += gain
            print(f"{name:24s} {gain:+8.2f} dB  -> {running:+.2f} dBm")
        print(f"{'margin':24s} {design.margin_db(1.75):+8.2f} dB")


def main():
    table1()
    fig11()
    budgets()


if __name__ == "__main__":
    main()
