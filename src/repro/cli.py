"""Command-line interface: ``python -m repro <command>``.

Small, dependency-free front door to the common workflows so a user
can poke the system without writing code::

    python -m repro table1            # Table 1 tolerances
    python -m repro fig11             # the beam-diameter sweep
    python -m repro calibrate         # run the Section 4 pipeline
    python -m repro traces            # Section 5.4 availability (subset)
    python -m repro safety            # eye-safety reports
    python -m repro plan --width 4 --depth 3   # ceiling TX plan
    python -m repro formats           # the VR-format bandwidth ladder
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_table1(args):
    from .link import evaluate, link_10g_collimated, link_10g_diverging
    from .reporting import TextTable, fmt_float
    table = TextTable(["design", "TX tol (mrad)", "RX tol (mrad)",
                       "peak (dBm)"])
    for design in (link_10g_collimated(20e-3),
                   link_10g_diverging(20e-3)):
        r = evaluate(design)
        table.add_row(design.name,
                      fmt_float(r.tx_angular_tolerance_rad * 1e3),
                      fmt_float(r.rx_angular_tolerance_rad * 1e3),
                      fmt_float(r.peak_power_dbm, 1))
    print(table.render())
    return 0


def _cmd_fig11(args):
    from .link import diameter_sweep, link_10g_diverging
    from .reporting import TextTable, fmt_float
    diameters = np.arange(8e-3, 33e-3, 2e-3)
    table = TextTable(["beam at RX (mm)", "RX tol (mrad)",
                       "TX tol (mrad)", "peak (dBm)"])
    for r in diameter_sweep(link_10g_diverging, diameters, 1.75):
        table.add_row(fmt_float(r.beam_diameter_at_rx_m * 1e3, 0),
                      fmt_float(r.rx_angular_tolerance_rad * 1e3),
                      fmt_float(r.tx_angular_tolerance_rad * 1e3),
                      fmt_float(r.peak_power_dbm, 1))
    print(table.render())
    return 0


def _cmd_calibrate(args):
    from .simulate import realign_trials
    print(f"calibrating (seed {args.seed})...")
    connected, _ = realign_trials(args.seed, args.trials)
    print(f"realign trials at optimal: {connected}/{args.trials}")
    return 0 if connected == args.trials else 1


def _cmd_traces(args):
    from .motion import generate_batch
    from .simulate import analyze, report, simulate_batch
    batch = generate_batch(viewers=args.viewers, videos=args.videos,
                           columns="steps", workers=args.workers)
    result = simulate_batch(batch, workers=args.workers)
    availability = report(result)
    clustering = analyze(result)
    print(f"traces: {len(result)}")
    print(f"overall availability: "
          f"{availability.overall_availability * 100:.2f} % "
          f"(paper: 98.6)")
    print(f"range: {availability.worst * 100:.2f} - "
          f"{availability.best * 100:.2f} %")
    print(f"off-slots in frames with <10 offs: "
          f"{clustering.fraction_in_frames_below(10) * 100:.0f} % "
          f"(paper: >60)")
    return 0


def _cmd_safety(args):
    from .link import link_10g_collimated, link_10g_diverging, link_25g
    from .optics import assess_design
    from .reporting import TextTable, fmt_float
    table = TextTable(["design", "launched (dBm)", "limit (mW)",
                       "hazard dist (m)", "safe @ 1.75 m"])
    for design in (link_10g_diverging(), link_10g_collimated(),
                   link_25g()):
        r = assess_design(design)
        table.add_row(design.name, fmt_float(r.launched_power_dbm, 1),
                      fmt_float(r.class1_limit_mw, 1),
                      fmt_float(r.hazard_distance_m, 2),
                      "yes" if r.safe_at_link_range else "NO")
    print(table.render())
    return 0


def _cmd_plan(args):
    from .plan import CoverageConstraints, Room, plan_greedy
    try:
        room = Room(width_m=args.width, depth_m=args.depth,
                    ceiling_height_m=args.ceiling)
        plan = plan_greedy(room, CoverageConstraints(),
                           target_fraction=args.coverage,
                           resolution_m=0.2)
    except ValueError as exc:  # the room or the target is out of range
        print(f"repro plan: error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(plan.tx_positions)} TXs -> "
          f"{plan.coverage_fraction(0.2) * 100:.0f} % coverage, "
          f"{plan.redundancy_fraction(0.2) * 100:.0f} % redundant")
    for i, (x, y) in enumerate(plan.tx_positions):
        print(f"  TX {i}: ({x:.2f}, {y:.2f}) m")
    return 0


def _cmd_formats(args):
    from .reporting import TextTable, fmt_float
    from .stream import CATALOGUE
    table = TextTable(["format", "raw Gbps", "fits 10G", "fits 25G"])
    for fmt in CATALOGUE:
        table.add_row(fmt.name.split(" (")[0],
                      fmt_float(fmt.raw_bitrate_gbps, 1),
                      "yes" if fmt.fits_raw(9.4) else "no",
                      "yes" if fmt.fits_raw(23.5) else "no")
    print(table.render())
    return 0


def _cmd_scenarios(args):
    from .reporting import TextTable
    from .simulate import list_scenarios
    table = TextTable(["id", "paper", "description"])
    for scenario in list_scenarios():
        table.add_row(scenario.scenario_id, scenario.paper_ref,
                      scenario.description)
    print(table.render())
    return 0


def _cmd_scenario(args):
    from .simulate import get_scenario
    try:
        scenario = get_scenario(args.scenario_id)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(f"{scenario.paper_ref}: {scenario.description}")
    print(f"full regeneration: pytest {scenario.bench} "
          f"--benchmark-only -s")
    for name, value in scenario.quick().items():
        print(f"  {name} = {value:.4g}")
    return 0


def _positive_int(text: str) -> int:
    """Argparse type for counts: an integer >= 1 (else exit 2)."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    """Argparse type for seeds: an integer >= 0 (else exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cyclops (SIGCOMM 2022) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1 link tolerances"
                   ).set_defaults(func=_cmd_table1)
    sub.add_parser("fig11", help="Fig. 11 beam-diameter sweep"
                   ).set_defaults(func=_cmd_fig11)

    calibrate = sub.add_parser("calibrate",
                               help="run the Section 4 pipeline")
    calibrate.add_argument("--seed", type=_non_negative_int, default=7)
    calibrate.add_argument("--trials", type=_positive_int, default=10)
    calibrate.set_defaults(func=_cmd_calibrate)

    traces = sub.add_parser("traces",
                            help="Section 5.4 trace availability")
    traces.add_argument("--viewers", type=_positive_int, default=10)
    traces.add_argument("--videos", type=_positive_int, default=10)
    traces.add_argument("--workers", type=_positive_int, default=1)
    traces.set_defaults(func=_cmd_traces)

    sub.add_parser("safety", help="eye-safety reports"
                   ).set_defaults(func=_cmd_safety)

    plan = sub.add_parser("plan", help="ceiling TX coverage plan")
    plan.add_argument("--width", type=float, default=3.0)
    plan.add_argument("--depth", type=float, default=3.0)
    plan.add_argument("--ceiling", type=float, default=2.6)
    plan.add_argument("--coverage", type=float, default=0.95)
    plan.set_defaults(func=_cmd_plan)

    sub.add_parser("formats", help="VR format bandwidth ladder"
                   ).set_defaults(func=_cmd_formats)

    sub.add_parser("scenarios", help="list the experiment registry"
                   ).set_defaults(func=_cmd_scenarios)
    scenario = sub.add_parser("scenario",
                              help="quick-run one experiment")
    scenario.add_argument("scenario_id")
    scenario.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code.

    Every subcommand shares one exception→exit-code contract: 0 ok,
    1 failed work (a voltage outside the coverage cone, a diverged
    ``G'`` or ``P`` solve, a beam that misses its plane), 2 bad
    configuration or usage, 130 interrupted by Ctrl-C.  Subcommands
    may map their own exceptions first for a more specific message;
    this ladder is the backstop that keeps an escaping taxonomy
    exception from surfacing as a traceback.
    """
    from .core import InverseDivergedError, PointingDivergedError
    from .galvo import CoverageError
    from .geometry import NoIntersectionError
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    except (CoverageError, PointingDivergedError, InverseDivergedError,
            NoIntersectionError) as exc:
        print(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
