"""Ablation: tracking frequency sensitivity (Section 5.2's bold claim).

"As TP's latency is much lower (1-2 ms) than the frequency at which it
occurs (every 12-13 ms at VRH-T updates), a custom VRH-T with much
higher tracking frequency will improve Cyclops's performance
significantly."  We replay the *same* head motions through the Section
5.4 trace simulation at several report rates and watch availability
climb.
"""

from repro.motion import generate_batch
from repro.reporting import TextTable, fmt_float
from repro.simulate import TimeslotParams, report, simulate_batch

BASE_DT_S = 0.002
RESAMPLE_FACTORS = (10, 5, 2, 1)  # 20, 10, 4, 2 ms report periods


def availability_vs_rate():
    """Overall availability of the same traces per report period."""
    base = generate_batch(viewers=8, videos=4, dt_s=BASE_DT_S,
                          duration_s=30.0, seed=0, columns="steps")
    outcomes = {}
    for factor in RESAMPLE_FACTORS:
        period_s = BASE_DT_S * factor
        slot_s = min(1e-3, period_s / 2)
        params = TimeslotParams(
            slot_s=slot_s,
            tp_latency_slots=max(int(1.5e-3 / slot_s), 1))
        result = simulate_batch(base.resample(factor), params)
        outcomes[period_s * 1e3] = report(result).overall_availability
    return outcomes


def test_ablation_tracking_rate(benchmark):
    outcomes = benchmark.pedantic(availability_vs_rate, rounds=1,
                                  iterations=1)
    table = TextTable(["report period (ms)", "availability (%)"])
    for period_ms in sorted(outcomes, reverse=True):
        table.add_row(fmt_float(period_ms, 0),
                      fmt_float(outcomes[period_ms] * 100, 2))
    print("\nAblation -- availability vs VRH-T report period "
          "(paper: higher tracking frequency helps significantly)")
    print(table.render())

    ordered = [outcomes[p] for p in sorted(outcomes, reverse=True)]
    # Monotone: faster tracking, higher availability.
    assert all(b >= a - 1e-4 for a, b in zip(ordered, ordered[1:]))
    # And the gain is material between 20 ms and 2 ms reporting.
    assert ordered[-1] > ordered[0]
