"""Fig. 16 + Section 5.4: trace-driven availability of the 25G link.

Paper: "our 25Gbps link prototype is operational in 98.6% of the
timeslots over all the 500 traces, with the operation percentage
varying from 99.98 to 95%", effective bandwidth ~23 Gbps, and most
(>60 %) off-slots occur in frames with fewer than 10 off-slots.
"""

from repro import constants
from repro.motion import generate_batch
from repro.reporting import AsciiPlot, TextTable, fmt_float
from repro.simulate import analyze, report, simulate_batch


def full_dataset_run():
    batch = generate_batch(viewers=50, videos=10, columns="steps")
    return simulate_batch(batch)


def test_fig16_availability(benchmark):
    results = benchmark.pedantic(full_dataset_run, rounds=1,
                                 iterations=1)
    availability = report(results)
    clustering = analyze(results)

    disconnected, fractions = availability.disconnection_cdf()
    table = TextTable(["CDF fraction", "disconnected (%)"])
    for f in (0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.00):
        idx = min(int(f * len(disconnected)), len(disconnected) - 1)
        table.add_row(fmt_float(f, 2), fmt_float(disconnected[idx], 3))
    print("\nFig. 16 -- CDF of per-trace disconnection percentage "
          "(500 traces)")
    print(table.render())
    plot = AsciiPlot(width=56, height=10,
                     x_label="disconnected (%)", y_label="CDF")
    plot.add_series("traces", disconnected, fractions)
    print(plot.render())

    effective = availability.effective_bandwidth_gbps(
        constants.SFP_25G_OPTIMAL_THROUGHPUT_GBPS)
    scattered = clustering.fraction_in_frames_below(10)
    print(f"overall availability: "
          f"{availability.overall_availability * 100:.2f} % "
          f"(paper: 98.6)")
    print(f"range across traces: {availability.worst * 100:.2f} - "
          f"{availability.best * 100:.2f} % (paper: 95 - 99.98)")
    print(f"effective bandwidth: {effective:.1f} Gbps (paper: ~23)")
    print(f"off-slots in frames with <10 offs: {scattered * 100:.0f} % "
          f"(paper: >60)")

    assert len(results) == constants.TRACE_COUNT
    # Headline shape: high-90s overall availability.
    assert 0.97 <= availability.overall_availability <= 0.999
    # Wide spread across traces, with the best essentially perfect.
    assert availability.best >= 0.9995
    assert 0.90 <= availability.worst <= 0.99
    # Effective bandwidth near the optimal 23.5 Gbps.
    assert effective > 22.0
    # Off-slots are mostly scattered, not clustered.
    assert scattered > 0.45
