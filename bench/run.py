"""Run the repository benchmark: every workload, or one.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--output FILE]

Each workload runs in its own fresh child process (``workloads.py``)
against the ``repro`` sources under ``src/`` next to this directory.
The command prints every metric by name with its unit, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits 1 when an output check fails and
2 when ``src/repro`` is absent or a child process fails, without
printing that line.

``--trace 0`` (the default) reports the end-to-end metrics.
``--trace 1`` is the separate traced run: it reports the per-layer
metrics, the tracing overhead and the site self-check, and writes a
Chrome trace-event file per workload under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: A child past this is killed, so one workload ends within 180 s.
CHILD_TIMEOUT_S = 170.0

#: End-to-end metrics of an untraced run, with units.
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or printed no record."""


def run_child(workload: str, seed: int, seconds: float, trace: int
              ) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, str(BENCH / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        command += ["--trace-file",
                    str(OUT / f"{workload}-seed{seed}.trace.json")]
    command += ["--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: killed after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def _units(result: Dict[str, Any]) -> Dict[str, str]:
    return spans.metric_units() if result["traced"] else E2E_UNITS


def report(result: Dict[str, Any]) -> None:
    """Print one workload's metrics, checks and (traced) layer table."""
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} (seed {result['seed']}, {mode}): "
          f"{result['ops']} operations in {result['measured_s']:.2f} s, "
          f"work unit = one {result['unit']}")
    units = _units(result)
    if not result["traced"]:
        for name, value in result["metrics"].items():
            print(f"  {name:<18} {value:>14.6g} {units[name]}")
    for name, (value, unit) in result["details"].items():
        print(f"  {name:<18} {value:>14.6g} {unit}")
    if result["traced"]:
        _report_layers(result)
    verdict = "ok" if not result["problems"] else "FAILED"
    print(f"  checks: {verdict} ({result['attempted']} attempted, "
          f"{result['failed']} failed)")
    for problem in result["problems"]:
        print(f"    - {problem}")


def _report_layers(result: Dict[str, Any]) -> None:
    name = result["workload"]
    layers = result["layers"]
    print(f"  {'layer callable':<42} {'calls':>8} {'p50_us':>9} "
          f"{'p99_us':>9} {'total_s':>8} {'self_s':>8}  site")
    for entry in spans.LAYERS:
        if not entry.stats:
            continue
        row = layers.get(entry.key)
        if row is None:
            print(f"  {entry.key:<42} {'missing':>8}")
            continue
        status = "ok"
        if name in entry.works_in and row["calls"] == 0:
            status = "idle (expected work)"
        elif name in entry.idle_in and row["calls"] > 0:
            status = "busy (expected idle)"
        cells = " ".join(
            " " * width if row.get(stat) is None
            else f"{row[stat]:>{width}.{digits}f}"
            for stat, width, digits in (("p50_us", 9, 1), ("p99_us", 9, 1),
                                        ("total_s", 8, 3), ("self_s", 8, 3)))
        print(f"  {entry.key:<42} {row['calls']:>8} {cells}  {status}")
    for site in result["missing"]:
        print(f"  missing site: {site}")
    metrics = result["metrics"]
    print(f"  trace.overhead_frac {metrics['trace.overhead_frac']:.4f}; "
          f"trace file {result['trace_file']}")


def machine() -> Dict[str, Any]:
    """What the numbers were measured on."""
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "sched_getaffinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spans.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path,
                        help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(spans.WORKLOADS)
    results = []
    for name in names:
        try:
            result = run_child(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        report(result)
        results.append(result)

    metrics = {}
    for result in results:
        units = _units(result)
        prefix = "" if args.workload else f"{result['workload']}."
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    correct = all(not r["problems"] for r in results)
    if args.output is not None:
        args.output.write_text(json.dumps(
            {"machine": machine(), "seconds": args.seconds,
             "results": results}, indent=1) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
