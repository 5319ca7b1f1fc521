"""Chaos sweep harness: fault scenarios × supervised/bare arms.

Each :class:`ChaosScenario` names a reproducible experiment: a seeded
testbed, a motion profile, a set of armed fault models and a
supervisor policy.  :func:`run_scenario` runs it twice -- once with the
supervisor, once bare -- on *freshly built* testbeds with the same
seed, so both arms see byte-identical fault schedules and tracker
noise streams and the uptime delta is attributable to the recovery
ladder alone.

Like the handover study (which isolates *coverage*), the chaos sweep
isolates *robustness*: sessions run against the oracle-parameter
system so learning error does not confound the fault response.

:func:`run_chaos` fans scenarios out over
:func:`repro.parallel.parallel_map`; every quantity in the output
derives from the simulation (never the wall clock), so the resulting
``BENCH_chaos.json`` is byte-identical for any ``workers=`` setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..parallel import parallel_map
from . import models


@dataclass(frozen=True)
class ChaosScenario:
    """One named, fully reproducible fault experiment."""

    name: str
    description: str
    faults: Tuple = ()
    duration_s: float = 10.0
    seed: int = 11            # testbed seed (both arms)
    fault_seed: int = 3       # fault schedule seed (both arms)
    profile: str = "static"   # "static" or "stroke:<m_per_s>"
    supervisor_kwargs: Optional[dict] = None


def _build_profile(scenario: ChaosScenario, testbed):
    from ..motion import LinearRail, StaticProfile
    if scenario.profile == "static":
        return StaticProfile(testbed.home_pose,
                             duration_s=scenario.duration_s)
    if scenario.profile.startswith("stroke:"):
        speed = float(scenario.profile.split(":", 1)[1])
        rail = LinearRail(axis=[1, 0, 0], length_m=0.15)
        return rail.stroke_profile(testbed.home_pose, [speed])
    raise ValueError(f"unknown profile spec {scenario.profile!r}")


def _run_arm(scenario: ChaosScenario, supervised: bool):
    """One arm on a fresh testbed (same seed => same fault timeline)."""
    from ..simulate import PrototypeSession, Supervisor, Testbed
    testbed = Testbed(seed=scenario.seed)
    session = PrototypeSession(testbed, testbed.oracle_system())
    profile = _build_profile(scenario, testbed)
    supervisor = (Supervisor(**(scenario.supervisor_kwargs or {}))
                  if supervised else None)
    return session.run(profile, duration_s=scenario.duration_s,
                       faults=list(scenario.faults),
                       fault_seed=scenario.fault_seed,
                       supervisor=supervisor)


def run_scenario(scenario: ChaosScenario) -> dict:
    """Run both arms of one scenario; returns a JSON-ready record.

    Module-level and pure so :func:`repro.parallel.parallel_map` can
    ship it across processes; everything in the record derives from
    the simulation, never the wall clock.
    """
    supervised = _run_arm(scenario, supervised=True)
    bare = _run_arm(scenario, supervised=False)
    return {
        "name": scenario.name,
        "description": scenario.description,
        "duration_s": scenario.duration_s,
        "seed": scenario.seed,
        "fault_seed": scenario.fault_seed,
        "profile": scenario.profile,
        "supervised": supervised.fault_metrics().as_dict(),
        "unsupervised": bare.fault_metrics().as_dict(),
        "uptime_gain": (supervised.uptime_fraction
                        - bare.uptime_fraction),
        "coverage_failures": supervised.coverage_failures,
        "pointing_failures": supervised.pointing_failures,
        "events": supervised.event_lines(),
        "events_unsupervised": bare.event_lines(),
    }


def run_chaos(scenarios: Sequence[ChaosScenario],
              workers: Optional[int] = None) -> List[dict]:
    """Run a scenario sweep, optionally across processes.

    Results come back in scenario order regardless of ``workers``, so
    the serialized sweep is byte-identical for any worker count.
    """
    return parallel_map(run_scenario, list(scenarios), workers=workers)


def sweep_payload(records: Sequence[dict]) -> dict:
    """The canonical ``BENCH_chaos.json`` payload for a finished sweep."""
    return {
        "pipeline": "chaos",
        "scenarios": list(records),
        "supervised_mean_availability": _mean(
            r["supervised"]["availability"] for r in records),
        "unsupervised_mean_availability": _mean(
            r["unsupervised"]["availability"] for r in records),
        "mean_uptime_gain": _mean(r["uptime_gain"] for r in records),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


#: The default registry, spanning all three fault families.
CHAOS_SCENARIOS: Tuple[ChaosScenario, ...] = (
    ChaosScenario(
        name="drift-remap",
        description="slow VRH-T drift; supervisor escalates to remap",
        faults=(models.TrackerDrift(onset_s=2.0, rate_m_per_s=0.01,
                                    max_m=0.02),),
        duration_s=14.0,
        supervisor_kwargs={"drift_baseline_samples": 30,
                           "drift_window": 15, "max_remaps": 3},
    ),
    ChaosScenario(
        name="blockage",
        description="LOS blockages + report dropouts; hold-off keeps aim",
        faults=(models.ChannelBlockage(rate_hz=0.2, mean_duration_s=0.4),
                models.TrackerDropout()),
        duration_s=10.0,
    ),
    ChaosScenario(
        name="tracker-chaos",
        description="dropouts, frozen poses and outlier bursts at once",
        faults=(models.TrackerDropout(rate_hz=0.5),
                models.TrackerFreeze(rate_hz=0.4),
                models.TrackerOutlierBurst(rate_hz=0.3, offset_m=0.3)),
        duration_s=10.0,
    ),
    ChaosScenario(
        name="actuator",
        description="lost + jittered commands and a stuck TX mirror",
        faults=(models.CommandLoss(probability=0.1),
                models.CommandJitter(max_extra_s=0.004),
                models.StuckMirror(start_s=3.0, end_s=4.0,
                                   side="tx", axis=0)),
        duration_s=10.0,
    ),
    ChaosScenario(
        name="attenuation",
        description="slow channel attenuation ramp (mist on the optics)",
        faults=(models.AttenuationRamp(start_s=2.0, ramp_db_per_s=1.5,
                                       max_db=12.0),),
        duration_s=8.0,
    ),
    ChaosScenario(
        name="kitchen-sink",
        description="drift + blockage + dropouts + command loss together",
        faults=(models.TrackerDrift(onset_s=3.0, rate_m_per_s=0.01,
                                    max_m=0.02),
                models.ChannelBlockage(rate_hz=0.15,
                                       mean_duration_s=0.3),
                models.TrackerDropout(),
                models.CommandLoss(probability=0.05)),
        duration_s=14.0,
        supervisor_kwargs={"drift_baseline_samples": 30,
                           "drift_window": 15, "max_remaps": 3},
    ),
)


def get_scenarios(names: Optional[Sequence[str]] = None
                  ) -> List[ChaosScenario]:
    """Look up scenarios by name (all of them when ``names`` is None)."""
    if not names:
        return list(CHAOS_SCENARIOS)
    registry = {s.name: s for s in CHAOS_SCENARIOS}
    missing = [n for n in names if n not in registry]
    if missing:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown chaos scenario(s) {missing}; "
                       f"available: {known}")
    return [registry[n] for n in names]
