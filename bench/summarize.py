"""Summarize repeated benchmark runs into a baseline and a spread table.

    python3 bench/summarize.py RUN.json [RUN.json ...] [--baseline FILE]

Each ``RUN.json`` is a file ``bench/run.py --output`` wrote.  For
every workload and every untraced metric (end-to-end metrics and the
named details) the script prints n, min, median, max, the range spread
``(max - min) / median`` and the quartile spread ``(q3 - q1) / median``
as a Markdown table.  ``--baseline FILE`` writes the medians, with the
machine metadata of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from run import E2E_UNITS


def collect(paths: List[Path]
            ) -> Tuple[dict, set, Dict[str, Dict[str, list]]]:
    """``(machine, seeds, {workload: {metric: [values, unit]}})``."""
    machine: dict = {}
    seeds = set()
    values: Dict[str, Dict[str, list]] = defaultdict(dict)
    for path in paths:
        record = json.loads(path.read_text())
        machine = machine or record["machine"]
        for result in record["results"]:
            if result["traced"]:
                continue
            seeds.add(result["seed"])
            metrics = {name: (value, E2E_UNITS[name])
                       for name, value in result["metrics"].items()}
            metrics.update(result["details"])
            for name, (value, unit) in metrics.items():
                values[result["workload"]].setdefault(
                    name, [[], unit])[0].append(value)
    return machine, seeds, values


def quartile_spread(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    machine, seeds, values = collect(args.runs)
    print("| workload | metric | unit | n | min | median | max "
          "| range spread | quartile spread |")
    print("|---|---|---|---|---|---|---|---|---|")
    baseline: Dict[str, Dict[str, dict]] = {}
    for workload, metrics in values.items():
        for name, (samples, unit) in metrics.items():
            median = statistics.median(samples)
            low, high = min(samples), max(samples)
            spread = (high - low) / median if median else 0.0
            print(f"| {workload} | {name} | {unit} | {len(samples)} "
                  f"| {low:.6g} | {median:.6g} | {high:.6g} "
                  f"| {spread:.1%} | {quartile_spread(samples):.1%} |")
            baseline.setdefault(workload, {})[name] = {
                "median": median, "min": low, "max": high, "unit": unit,
                "n": len(samples)}
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(
            {"machine": machine, "runs": len(args.runs),
             "seeds": sorted(seeds), "workloads": baseline},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
