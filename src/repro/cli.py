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
    python -m repro chaos             # fault-injection robustness sweep
    python -m repro sweep --checkpoint ck   # crash-safe resumable sweep
    python -m repro analyze           # static analysis (layering/RNG/units/
                                      # crash safety/error contracts)

``chaos`` and ``sweep`` publish their JSON records atomically (tmp +
rename) and defer SIGINT/SIGTERM to checkpoint boundaries, exiting
``128 + signum`` with no torn artifacts; ``sweep`` additionally
checkpoints per work unit and resumes byte-identically with
``--resume``.
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
    from .core import point
    from .simulate import Testbed
    testbed = Testbed(seed=args.seed)
    print(f"calibrating (seed {args.seed})...")
    outcome = testbed.calibrate()
    connected = 0
    for pose in testbed.evaluation_poses(args.trials):
        command = point(outcome.system, testbed.tracker.report(pose))
        testbed.apply_command(command)
        connected += testbed.channel.evaluate(pose).connected
    print(f"realign trials at optimal: {connected}/{args.trials}")
    return 0 if connected == args.trials else 1


def _cmd_traces(args):
    from .motion import generate_dataset
    from .simulate import analyze, report, simulate_dataset
    traces = generate_dataset(viewers=args.viewers, videos=args.videos,
                              workers=args.workers)
    results = simulate_dataset(traces, workers=args.workers)
    availability = report(results)
    clustering = analyze(results)
    print(f"traces: {len(traces)}")
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
    room = Room(width_m=args.width, depth_m=args.depth,
                ceiling_height_m=args.ceiling)
    plan = plan_greedy(room, CoverageConstraints(),
                       target_fraction=args.coverage,
                       resolution_m=0.2)
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


def _cmd_chaos(args):
    """Sweep fault scenarios, supervised vs bare, write BENCH_chaos.json."""
    import time

    from .faults.chaos import get_scenarios, run_chaos, sweep_payload
    from .orchestrator.signals import SignalGuard
    from .reporting import TextTable, fmt_float
    from .store import write_json_atomic

    names = args.scenarios.split(",") if args.scenarios else None
    try:
        scenarios = get_scenarios(names)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    # The sweep is one compute call, so a first Ctrl-C defers: the
    # finished records still publish (atomically) before exiting
    # 128+signum.  A second Ctrl-C aborts the blunt way.
    with SignalGuard() as guard:
        t0 = time.perf_counter()
        records = run_chaos(scenarios, workers=args.workers)
        wall_s = time.perf_counter() - t0

    table = TextTable(["scenario", "bare up", "supervised up", "gain",
                       "MTTR (s)", "recoveries"])
    for r in records:
        table.add_row(r["name"],
                      fmt_float(r["unsupervised"]["availability"], 3),
                      fmt_float(r["supervised"]["availability"], 3),
                      fmt_float(r["uptime_gain"], 3),
                      fmt_float(r["supervised"]["mttr_s"], 3),
                      str(r["supervised"]["recovery_actions"]))
    print(table.render())

    # Wall time is printed but kept OUT of the payload so the file is
    # byte-identical for any --workers setting.
    payload = sweep_payload(records)
    write_json_atomic(args.output, payload)
    print(f"mean uptime gain: {payload['mean_uptime_gain']:+.3f}")
    print(f"wall: {wall_s:.2f} s (workers={args.workers})")
    print(f"wrote {args.output}")
    if guard.triggered:
        print(f"interrupted by signal {guard.triggered}; record "
              "published before exit")
        return guard.exit_code
    return 0


def _cmd_sweep(args):
    """Run (or resume) a crash-safe checkpointed sweep.

    Work units execute in killable child processes, spool into the
    checkpoint's column store as they finish, and the final corpus +
    ``SWEEP_<kind>.json`` payload are byte-identical no matter how
    many times the run was interrupted — SIGKILL included — and
    resumed with ``--resume``.  Exit codes: 0 done, 1 units failed,
    2 bad configuration, 128+signum when interrupted.
    """
    import time

    from .orchestrator import (
        SignalGuard,
        SweepConfigError,
        SweepError,
        SweepInterrupted,
        SweepRunner,
        UnitFailedError,
        build_sweep,
        list_kinds,
    )
    from .store import write_json_atomic

    names = args.scenarios.split(",") if args.scenarios else None
    try:
        spec = build_sweep(args.kind, seed=args.seed, units=args.units,
                           work=args.work, sleep_s=args.sleep_s,
                           trials=args.trials, scenarios=names)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else str(exc))
        print(f"available kinds: {', '.join(list_kinds())}")
        return 2

    output = args.output if args.output else f"SWEEP_{args.kind}.json"
    t0 = time.perf_counter()
    baseline = {"done": 0}

    def progress(done, total, unit):
        elapsed = time.perf_counter() - t0
        fresh = done - baseline["done"]
        remaining = total - done
        if fresh > 0 and remaining > 0:
            eta = elapsed / fresh * remaining
            tail = f"ETA {eta:5.1f} s"
        else:
            tail = "done" if remaining == 0 else "ETA ?"
        print(f"[{done:>{len(str(total))}}/{total}] {unit.label} "
              f"({elapsed:.1f} s elapsed, {tail})")

    try:
        with SignalGuard() as guard:
            runner = SweepRunner(
                spec, args.checkpoint, workers=args.workers,
                timeout_s=args.timeout_s, retries=args.retries,
                progress=progress, stop_check=guard.check)
            status = runner.prepare(resume=args.resume)
            baseline["done"] = status.done
            print(f"sweep {spec.name!r}: {status.total} units, "
                  f"{status.done} already checkpointed, "
                  f"{status.pending} to run "
                  f"(workers={runner.workers})")
            if status.reaped_tmp:
                print(f"reaped {status.reaped_tmp} orphaned tmp "
                      "group(s) from a previous crash")
            if status.journal_dropped_bytes:
                print(f"dropped {status.journal_dropped_bytes} torn "
                      "journal byte(s); affected units re-run")
            result = runner.run()
            guard.check()
            _, payload = runner.finalize(group=args.group)
    except SweepConfigError as exc:
        print(str(exc))
        return 2
    except UnitFailedError as exc:
        print(str(exc))
        return 1
    except SweepError as exc:
        print(str(exc))
        return 1
    except SweepInterrupted as exc:
        print(f"interrupted by signal {exc.signum}; checkpoint at "
              f"{args.checkpoint} is consistent — rerun with --resume")
        return exc.exit_code

    write_json_atomic(output, payload)
    wall_s = time.perf_counter() - t0
    print(f"corpus group {args.group!r}: {payload['units']} rows, "
          f"sha256 {payload['corpus_sha256'][:16]}…")
    print(f"ran {result.ran}, skipped {result.skipped} "
          f"(infra retries {result.infra_retries}, fn retries "
          f"{result.fn_retries}, escalations {result.escalations})")
    print(f"wall: {wall_s:.2f} s")
    print(f"wrote {output}")
    return 0


def _cmd_analyze(args):
    """Run the repro.devtools static analyzer."""
    from .devtools.cli import run_analyze
    return run_analyze(args)


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
    for name, value in scenario.run_quick().items():
        print(f"  {name} = {value:.4g}")
    return 0


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
    calibrate.add_argument("--seed", type=int, default=7)
    calibrate.add_argument("--trials", type=int, default=10)
    calibrate.set_defaults(func=_cmd_calibrate)

    traces = sub.add_parser("traces",
                            help="Section 5.4 trace availability")
    traces.add_argument("--viewers", type=int, default=10)
    traces.add_argument("--videos", type=int, default=10)
    traces.add_argument("--workers", type=int, default=1)
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

    chaos = sub.add_parser(
        "chaos", help="fault-injection sweep, write BENCH_chaos.json")
    chaos.add_argument("--scenarios", default=None,
                       help="comma-separated scenario names (default all)")
    chaos.add_argument("--workers", type=int, default=1)
    chaos.add_argument("--output", default="BENCH_chaos.json")
    chaos.set_defaults(func=_cmd_chaos)

    sweep = sub.add_parser(
        "sweep",
        help="crash-safe checkpointed sweep (resume with --resume)")
    sweep.add_argument("--kind", default="demo",
                       help="workload: demo, calibration, or chaos")
    sweep.add_argument("--checkpoint", required=True,
                       help="checkpoint directory (manifest, journal, "
                            "spooled results)")
    sweep.add_argument("--resume", action="store_true",
                       help="continue an interrupted sweep; completed "
                            "units are skipped, bytes are identical")
    sweep.add_argument("--workers", type=int, default=1,
                       help="concurrent worker processes (0 = auto)")
    sweep.add_argument("--timeout-s", type=float, default=None,
                       dest="timeout_s", metavar="S",
                       help="kill a unit's worker after S seconds")
    sweep.add_argument("--retries", type=int, default=2,
                       help="retries per unit before serial escalation")
    sweep.add_argument("--units", type=int, default=8,
                       help="unit count (demo/calibration kinds)")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--work", type=int, default=4096,
                       help="per-unit draw count (demo kind)")
    sweep.add_argument("--sleep-s", type=float, default=0.0,
                       dest="sleep_s", metavar="S",
                       help="per-unit sleep (demo kind; test harness)")
    sweep.add_argument("--trials", type=int, default=10,
                       help="realignment trials (calibration kind)")
    sweep.add_argument("--scenarios", default=None,
                       help="comma-separated names (chaos kind)")
    sweep.add_argument("--group", default="corpus",
                       help="final corpus group name")
    sweep.add_argument("--output", default=None,
                       help="payload JSON path "
                            "(default SWEEP_<kind>.json)")
    sweep.set_defaults(func=_cmd_sweep)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: layering, RNG provenance, units, crash "
             "safety and error contracts (repro.devtools)")
    from .devtools.cli import add_analyze_arguments
    add_analyze_arguments(analyze)
    analyze.set_defaults(func=_cmd_analyze)

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
    1 failed work (units, store, coverage), 2 bad configuration or
    usage, 130/143 interrupted by SIGINT/SIGTERM (128+signum).
    Subcommands may map their own exceptions first for a more
    specific message; this ladder is the backstop that keeps an
    escaping taxonomy exception from surfacing as a traceback.
    """
    from .galvo import CoverageError
    from .orchestrator import (
        ManifestError,
        SweepConfigError,
        SweepError,
        SweepInterrupted,
        UnitFailedError,
    )
    from .store import StoreError
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SweepInterrupted as exc:
        print(f"interrupted by signal {exc.signum}")
        return exc.exit_code
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    except (SweepConfigError, ManifestError) as exc:
        print(str(exc))
        return 2
    except (UnitFailedError, SweepError, StoreError,
            CoverageError) as exc:
        print(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
