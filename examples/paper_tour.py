"""The whole paper in two minutes: quick-run every registered
experiment and print the headline numbers next to the paper's::

    python examples/paper_tour.py
"""

from repro.reporting import TextTable
from repro.simulate import list_scenarios

PAPER_HEADLINES = {
    "table1": "diverging beats collimated on tolerance, loses ~25 dB",
    "fig11": "RX tolerance peaks at 5.77 mrad @ 16 mm",
    "table2": "stage-1 model error ~1.2-1.9 mm avg",
    "sec52": "10/10 realign trials reach optimal throughput",
    "fig16": "98.6 % availability over 500 traces",
    "thresholds": "tolerated ~33 cm/s and 16-18 deg/s (10G)",
}


def main():
    print("Cyclops paper tour -- quick versions of every registered "
          "experiment\n(full regenerations live in benchmarks/)\n")
    for scenario in list_scenarios():
        print(f"[{scenario.scenario_id}] {scenario.paper_ref}: "
              f"{scenario.description}")
        paper = PAPER_HEADLINES.get(scenario.scenario_id)
        if paper:
            print(f"  paper: {paper}")
        metrics = scenario.quick()
        table = TextTable(["metric", "value"])
        for name, value in metrics.items():
            table.add_row(name, f"{value:.4g}")
        print(table.render(indent="  "))
        print()
    print("Done.  For the full tables and figures:")
    print("  pytest benchmarks/ --benchmark-only -s")


if __name__ == "__main__":
    main()
