"""Step-by-step walkthrough of the Section 4 learning pipeline.

Shows each stage with its intermediate numbers: the board calibration
(4.1), the joint mapping fit (4.2), the G' inverse, and the pointing
fixed-point iteration (4.3)::

    python examples/calibration_walkthrough.py
"""

import numpy as np

from repro.core import (
    BoardRig,
    GmaModel,
    evaluate_fit,
    fit_gma,
    fit_mapping,
    interior_grid_points,
    mean_coincidence_error_m,
    point,
    solve_inverse,
)
from repro.geometry import normalize
from repro.simulate import Testbed
from repro.simulate.rig import _perturbed_params


def stage1(testbed):
    print("Stage 1 (Section 4.1) -- learn G in K-space")
    print("  collecting 266 board samples by steering the real beam "
          "onto grid points...")
    grid = interior_grid_points()
    rig = BoardRig(testbed.tx_hardware,
                   rng=np.random.default_rng(100))
    samples = rig.collect_samples(grid)
    print(f"  collected {len(samples)} samples "
          f"(voltages span {min(s.v1 for s in samples):+.1f} to "
          f"{max(s.v1 for s in samples):+.1f} V)")
    guess = _perturbed_params(testbed.tx_hardware.params, testbed.rng,
                              3e-3, np.radians(1.0), 0.01)
    model = fit_gma(samples, guess)
    holdout = grid[:40] + np.array([0.0127, 0.0127])
    errors = evaluate_fit(model, rig, holdout)
    print(f"  held-out board error: avg {errors.mean() * 1e3:.2f} mm, "
          f"max {errors.max() * 1e3:.2f} mm "
          f"(paper: 1.24 / 5.30 mm)")
    return model


def stage2(testbed, outcome):
    print("\nStage 2 (Section 4.2) -- learn the 12 mapping parameters")
    residual = mean_coincidence_error_m(outcome.system,
                                        outcome.mapping_samples)
    print(f"  {len(outcome.mapping_samples)} aligned 5-tuples, "
          f"joint fit residual d(pt,tr)+d(pr,tt) = "
          f"{residual * 1e3:.1f} mm")


def stage3(testbed, outcome):
    print("\nStage 3 (Section 4.3) -- G' inverse and pointing P")
    system = outcome.system
    tx = system.tx_model_vr
    origin, direction = tx.beam(1.0, -0.5)
    target = np.array(origin) + 1.75 * normalize(direction)
    inverse = solve_inverse(tx, target)
    print(f"  G'(target) converged in {inverse.iterations} iterations "
          f"(paper: 2-4), miss {inverse.miss_distance_m * 1e6:.1f} um")
    pose = testbed.evaluation_poses(1)[0]
    command = point(system, testbed.tracker.report(pose))
    print(f"  P(pose) converged in {command.iterations} iterations "
          f"(paper: 2-5)")
    testbed.apply_command(command)
    state = testbed.channel.evaluate(pose)
    print(f"  resulting link: {state.received_power_dbm:.1f} dBm "
          f"received (peak "
          f"{testbed.design.peak_power_dbm(state.range_m):.1f}), "
          f"{'connected' if state.connected else 'DISCONNECTED'}")


def main():
    testbed = Testbed(seed=13)
    stage1(testbed)
    print("\n(running the full built-in calibration for stages 2-3...)")
    outcome = testbed.calibrate()
    stage2(testbed, outcome)
    stage3(testbed, outcome)


if __name__ == "__main__":
    main()
