"""The benchmark's four workloads and the harness that times them.

Run as a script, this module is the child process ``bench/run.py``
starts once per workload: it builds the inputs from ``--seed``, sets
up, measures, checks the outputs and prints one JSON record.  Every
workload is a closed loop with a single caller that drives ``repro``'s
public API with ``workers=1``; ``repro`` receives only the generated
inputs.

A workload yields :class:`Op` values.  The harness times each ``run``
and nothing else; ``finish`` (output readout and checks) and the input
generation between operations stay outside the timed region.  An
untraced run sets up :data:`SETUP_REPEATS` times, then runs at least
``min_ops`` operations and keeps going in whole operations until
``--seconds`` have passed.  A traced run sets up once and runs exactly
``min_ops`` operations twice from identical set-up state -- untraced,
then traced -- so its per-layer counts repeat exactly for a seed and
the two passes must produce identical simulated outputs.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro
from repro import constants
from repro.core import InverseDivergedError, PointingDivergedError, pointing
from repro.motion import HandheldProfile, LinearRail, RotationStage
from repro.motion import batch as motion_batch
from repro.simulate import PrototypeSession, Testbed, surviving_speed_threshold
from repro.simulate import batch as simulate_batch

import spans

#: The seed whose derived inputs are the canonical ones below.
DEFAULT_SEED = 2022

#: Distance between the input seeds two consecutive ``--seed`` values
#: derive, so that nearby seeds never share a testbed.
SEED_STRIDE = 1000

#: Set-ups per untraced run; ``setup_s`` is their median, so one slow
#: set-up on a shared host does not move it.
SETUP_REPEATS = 3

#: The deployed testbeds ``session`` and ``pointing`` calibrate and then
#: drive.  They stay fixed across ``--seed``: a testbed's calibrated
#: model sets how many ``P`` iterations its reports need (between 14%
#: and 86% of warm solves take three instead of two, depending on the
#: testbed), so a seed-derived testbed would make the workload measure
#: which testbed it drew rather than the code.  ``--seed`` derives
#: their traffic instead; ``calibrate`` is the workload that varies the
#: testbed.
SESSION_TESTBED = 3
POINTING_TESTBED = 7

#: Fig. 13 stroke ramps: the speeds ``benchmarks/conftest.py`` uses,
#: less the slowest stroke of each, over half the rail and stage
#: extents.  A threshold below the second speed fails the threshold
#: check either way, and the half-length strokes read the same
#: thresholds as full-length ones on the session testbed.
LINEAR_SPEEDS_M_S = (0.22, 0.30, 0.38, 0.46, 0.55)
ANGULAR_SPEEDS_DEG_S = (12.0, 16.0, 20.0, 24.0, 28.0)
RAIL_LENGTH_M = 0.15
STAGE_RANGE_DEG = 10.0

#: Fig. 14 hand-held motion peaks.
HANDHELD_PEAK_M_S = 0.45
HANDHELD_PEAK_DEG_S = 28.0

#: Fig. 16 overall availability of the full corpus at the default seed.
CANONICAL_AVAILABILITY = 0.9912298666666667


def derive_seed(canonical: int, seed: int) -> int:
    """The input seed that is ``canonical`` at :data:`DEFAULT_SEED`."""
    return (canonical + SEED_STRIDE * (seed - DEFAULT_SEED)) % 2 ** 32


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``work`` units done by timed ``run``."""

    kind: str
    work: float
    run: Callable[[], Any]
    finish: Callable[[Any], Any]


@dataclass(frozen=True)
class Record:
    kind: str
    work: float
    seconds: float
    output: Any


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: List[str]


def _voltages(command: Any) -> Tuple[float, float, float, float]:
    return (command.v_tx1, command.v_tx2, command.v_rx1, command.v_rx2)


def _handheld(base_pose: Any, duration_s: float, seed: int
              ) -> HandheldProfile:
    """A Fig. 14 hand-held profile ramping up to the peak speeds."""
    return HandheldProfile(
        base_pose=base_pose, peak_linear_m_s=HANDHELD_PEAK_M_S,
        peak_angular_rad_s=np.radians(HANDHELD_PEAK_DEG_S),
        duration_s=duration_s, seed=seed)


class Calibrate:
    """``Testbed(seed).calibrate()`` over testbed seeds (Sections 4.1-4.2).

    The deployment path, and the only workload where the fitting layers
    -- K-space fit, alignment search, mapping fit -- do the work.  Each
    seed is then checked as ``python -m repro calibrate`` checks it: it
    must realign every evaluation trial at optimal power.
    """

    name = "calibrate"
    unit = "calibration"

    def __init__(self, seed: int = DEFAULT_SEED, min_ops: int = 5,
                 mapping_samples: int = constants.MAPPING_TRAINING_SAMPLES,
                 trials: int = 10) -> None:
        self.seed = seed
        self.min_ops = min_ops
        self.mapping_samples = mapping_samples
        self.trials = trials

    def setup(self) -> None:
        """Nothing: each operation's testbed is built between operations."""

    def ops(self, state: None) -> Iterator[Op]:
        for index in itertools.count():
            testbed = Testbed(seed=derive_seed(3 + index, self.seed))
            yield Op("seed", 1.0,
                     functools.partial(self._calibrate, testbed),
                     functools.partial(self._realign, testbed))

    def _calibrate(self, testbed: Testbed) -> Any:
        try:
            return testbed.calibrate(self.mapping_samples)
        except Exception as exc:  # a failed seed is counted, not fatal
            return exc

    def _realign(self, testbed: Testbed, outcome: Any) -> Dict[str, Any]:
        if isinstance(outcome, Exception):
            return {"seed": testbed.seed, "error": repr(outcome)}
        connected, voltages = 0, []
        for pose in testbed.evaluation_poses(self.trials):
            try:
                command = pointing.point(outcome.system,
                                         testbed.tracker.report(pose))
            except (PointingDivergedError, InverseDivergedError):
                continue
            testbed.apply_command(command)
            connected += testbed.channel.evaluate(pose).connected
            voltages.append(_voltages(command))
        return {"seed": testbed.seed, "connected": connected,
                "voltages": voltages}

    def check(self, records: List[Record]) -> Verdict:
        problems = []
        for r in records:
            out = r.output
            if "error" in out:
                problems.append(f"seed {out['seed']} raised {out['error']}")
            elif out["connected"] != self.trials:
                problems.append(f"seed {out['seed']} realigned "
                                f"{out['connected']}/{self.trials}")
        return Verdict(len(records), len(problems), problems)

    def details(self, records: List[Record]) -> Dict[str, Tuple[float, str]]:
        return {"calibrate_s":
                (statistics.median(r.seconds for r in records), "s")}


class Session:
    """The live closed loop, ``PrototypeSession.run``, in simulated time.

    On the calibrated 10G session testbed: the Fig. 13 linear and
    angular stroke ramps once, for the threshold checks, then Fig. 14
    hand-held profiles, each with its own seed, for as long as the run
    lasts.  ``P`` runs about 80 times and the channel 1,000 times per
    simulated second.  Work is counted in simulated seconds.
    """

    name = "session"
    unit = "simulated second"

    def __init__(self, seed: int = DEFAULT_SEED, handheld_s: float = 1.0,
                 handheld_runs: int = 3,
                 linear_speeds_m_s: Tuple[float, ...] = LINEAR_SPEEDS_M_S,
                 angular_speeds_deg_s: Tuple[float, ...] = ANGULAR_SPEEDS_DEG_S
                 ) -> None:
        self.seed = seed
        self.handheld_s = handheld_s
        self.linear_speeds_m_s = linear_speeds_m_s
        self.angular_speeds_deg_s = angular_speeds_deg_s
        self.min_ops = 2 + handheld_runs

    def setup(self) -> PrototypeSession:
        testbed = Testbed(seed=SESSION_TESTBED)
        return PrototypeSession(testbed, testbed.calibrate().system)

    def _profiles(self, home: Any) -> Iterator[Tuple[str, Any]]:
        rail = LinearRail(axis=[1.0, 0.0, 0.0], length_m=RAIL_LENGTH_M)
        yield "linear", rail.stroke_profile(home, self.linear_speeds_m_s)
        stage = RotationStage(axis=[0.0, 0.0, 1.0],
                              range_rad=np.radians(STAGE_RANGE_DEG))
        yield "angular", stage.stroke_profile(
            home, np.radians(self.angular_speeds_deg_s))
        for k in itertools.count():
            yield "handheld", _handheld(home, self.handheld_s,
                                        derive_seed(11 + k, self.seed))

    def ops(self, session: PrototypeSession) -> Iterator[Op]:
        for kind, profile in self._profiles(session.testbed.home_pose):
            yield Op(kind, profile.duration_s,
                     functools.partial(session.run, profile),
                     functools.partial(self._readout, kind, profile,
                                       session.testbed))

    @staticmethod
    def _readout(kind: str, profile: Any, testbed: Testbed,
                 result: Any) -> Dict[str, Any]:
        out = {"kind": kind, "pointing_calls": result.pointing_calls,
               "pointing_failures": result.pointing_failures,
               "coverage_failures": result.coverage_failures,
               "uptime": result.uptime_fraction,
               "power_dbm_sum": float(np.sum(result.power_dbm))}
        if kind in ("linear", "angular"):
            threshold = surviving_speed_threshold(
                profile.schedule, result.windows,
                testbed.design.sfp.optimal_throughput_gbps)
            out["threshold"] = (threshold if kind == "linear"
                                else float(np.degrees(threshold)))
        return out

    def check(self, records: List[Record]) -> Verdict:
        bands = {"linear": (0.30, 0.55), "angular": (12.0, 24.0)}
        problems = []
        failed = attempted = 0
        for r in records:
            out = r.output
            attempted += out["pointing_calls"]
            misses = out["pointing_failures"] + out["coverage_failures"]
            if misses:
                failed += misses
                problems.append(f"{out['kind']}: {misses} pointing failures")
            if out["kind"] in bands:
                low, high = bands[out["kind"]]
                if not low <= out["threshold"] <= high:
                    failed += 1
                    problems.append(f"{out['kind']} threshold "
                                    f"{out['threshold']} outside "
                                    f"[{low}, {high}]")
        return Verdict(attempted, failed, problems)

    def details(self, records: List[Record]) -> Dict[str, Tuple[float, str]]:
        host_s = math.fsum(r.seconds for r in records)
        thresholds = {r.kind: r.output["threshold"] for r in records
                      if "threshold" in r.output}
        return {"sim_s_per_host_s":
                (math.fsum(r.work for r in records) / host_s, "ratio"),
                "linear_threshold_m_s": (thresholds["linear"], "m/s"),
                "angular_threshold_deg_s": (thresholds["angular"], "deg/s")}


@dataclass
class _Stream:
    """Pointing inputs plus the warm stream's position and last command."""

    testbed: Testbed
    system: Any
    profile: HandheldProfile
    t_s: float
    last: Tuple[float, float, float, float]


def _solve(system: Any, report: Any, initial: Any) -> Any:
    try:
        return pointing.point(system, report, initial=initial)
    except (PointingDivergedError, InverseDivergedError):
        return None


def _solve_cold(system: Any, report: Any) -> Any:
    return _solve(system, report, pointing.cold_start_seed(system, report))


class Pointing:
    """``P`` alone: ``point`` (with ``G'`` and ``G``), no channel work.

    On the calibrated pointing testbed, two interleaved streams, two
    warm reports to every cold one.  Warm: consecutive tracker reports
    along a 25 s Fig. 14 hand-held ramp, each solve seeded with the
    previous command as the prototype does.  Cold: independent
    evaluation poses, each solved as ``cold_start_seed`` + ``point``
    (first report, or after a remap).  A change that speeds one stream
    at the other's cost shows.
    """

    name = "pointing"
    unit = "report"

    def __init__(self, seed: int = DEFAULT_SEED, cold: int = 1000) -> None:
        self.seed = seed
        self.min_ops = 3 * cold

    def setup(self) -> _Stream:
        testbed = Testbed(seed=POINTING_TESTBED)
        system = testbed.calibrate().system
        # The cold stream's evaluation poses are drawn from ``--seed``.
        testbed.rng = np.random.default_rng(derive_seed(7, self.seed))
        profile = _handheld(testbed.home_pose, 25.0,
                            derive_seed(11, self.seed))
        first = testbed.tracker.report(profile.pose_at(0.0))
        command = pointing.point(
            system, first, initial=pointing.cold_start_seed(system, first))
        return _Stream(testbed, system, profile, 0.0, _voltages(command))

    def ops(self, stream: _Stream) -> Iterator[Op]:
        tracker = stream.testbed.tracker
        for index in itertools.count():
            if index % 3 == 2:
                pose = stream.testbed.evaluation_poses(1)[0]
                yield Op("cold", 1.0,
                         functools.partial(_solve_cold, stream.system,
                                           tracker.report(pose)),
                         functools.partial(self._readout, "cold", None))
            else:
                stream.t_s += tracker.next_period_s()
                report = tracker.report(stream.profile.pose_at(stream.t_s))
                yield Op("warm", 1.0,
                         functools.partial(_solve, stream.system, report,
                                           stream.last),
                         functools.partial(self._readout, "warm", stream))

    @staticmethod
    def _readout(kind: str, stream: Optional[_Stream], command: Any
                 ) -> Tuple[str, Any, int]:
        if command is None:
            return kind, None, 0
        if stream is not None:
            stream.last = _voltages(command)
        return kind, _voltages(command), command.iterations

    def check(self, records: List[Record]) -> Verdict:
        limit = constants.DAQ_VOLTAGE_RANGE_V
        diverged = sum(1 for r in records if r.output[1] is None)
        out_of_range = sum(
            1 for r in records if r.output[1] is not None
            and max(abs(v) for v in r.output[1]) > limit)
        problems = []
        if diverged:
            problems.append(f"{diverged} solves diverged")
        if out_of_range:
            problems.append(f"{out_of_range} commands outside +/-{limit} V")
        return Verdict(len(records), diverged + out_of_range, problems)

    def details(self, records: List[Record]) -> Dict[str, Tuple[float, str]]:
        out = {}
        for kind, prefix in (("warm", "point"), ("cold", "cold_point")):
            us = sorted(r.seconds * 1e6 for r in records if r.kind == kind)
            out[f"{prefix}_p50_us"] = (spans.percentile(us, 50), "us")
            out[f"{prefix}_p99_us"] = (spans.percentile(us, 99), "us")
        iterations = [r.output[2] for r in records if r.output[1] is not None]
        out["iterations_mean"] = (statistics.fmean(iterations), "count")
        return out


class Availability:
    """The Fig. 16 pipeline: generate -> simulate -> overall availability.

    ``generate_batch(columns="steps")`` then ``simulate_batch`` over the
    full 500-trace corpus, 30M one-millisecond slots per pass.  It
    touches only ``motion.batch``, ``simulate.batch`` and ``parallel``:
    the bypass workload for every pointing or channel change.
    """

    name = "availability"
    unit = "pass"

    def __init__(self, seed: int = DEFAULT_SEED, viewers: int = 50,
                 videos: int = 10,
                 duration_s: float = constants.TRACE_DURATION_S,
                 min_ops: int = 8) -> None:
        self.seed = seed
        self.viewers = viewers
        self.videos = videos
        self.duration_s = duration_s
        self.min_ops = min_ops

    @property
    def canonical(self) -> bool:
        return (self.seed == DEFAULT_SEED and self.viewers * self.videos
                == constants.TRACE_COUNT
                and self.duration_s == constants.TRACE_DURATION_S)

    def _pass(self) -> Tuple[int, int]:
        batch = motion_batch.generate_batch(
            viewers=self.viewers, videos=self.videos,
            duration_s=self.duration_s, seed=derive_seed(DEFAULT_SEED,
                                                         self.seed),
            columns="steps", workers=1)
        connected = simulate_batch.simulate_batch(batch, workers=1).connected
        return int(np.count_nonzero(connected)), int(connected.size)

    def setup(self) -> None:
        self._pass()  # warm-up: allocator and page cache

    def ops(self, state: None) -> Iterator[Op]:
        while True:
            yield Op("pass", 1.0, self._pass, self._readout)

    @staticmethod
    def _readout(counts: Tuple[int, int]) -> Dict[str, Any]:
        on, slots = counts
        return {"availability": on / slots, "slots": slots}

    def check(self, records: List[Record]) -> Verdict:
        values = [r.output["availability"] for r in records]
        problems = []
        if self.canonical:
            wrong = sum(1 for v in values if v != CANONICAL_AVAILABILITY)
            expect = f"== {CANONICAL_AVAILABILITY!r}"
        else:
            wrong = sum(1 for v in values
                        if v != values[0] or not 0.97 <= v <= 1.0)
            expect = "identical and in [0.97, 1.0]"
        if wrong:
            problems.append(f"{wrong} passes not {expect}: "
                            f"{sorted(set(values))}")
        return Verdict(len(records), wrong, problems)

    def details(self, records: List[Record]) -> Dict[str, Tuple[float, str]]:
        median_s = statistics.median(r.seconds for r in records)
        return {"slots_per_s": (records[0].output["slots"] / median_s,
                                "slots/s")}


WORKLOADS = {w.name: w for w in (Calibrate, Session, Pointing, Availability)}


def measure(workload: Any, state: Any, seconds: float,
            tracer: Optional[spans.Tracer] = None) -> List[Record]:
    """Run ``min_ops`` operations, then more until ``seconds`` pass."""
    records: List[Record] = []
    start = time.perf_counter()
    for op in workload.ops(state):
        token = tracer.begin_op(len(records) + 1) if tracer else None
        t0 = time.perf_counter()
        raw = op.run()
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op(token, f"bench.{workload.name}.{op.kind}")
        records.append(Record(op.kind, op.work, elapsed, op.finish(raw)))
        if (len(records) >= workload.min_ops
                and time.perf_counter() - start >= seconds):
            break
    return records


def _summary(workload: Any, records: List[Record]) -> Dict[str, Any]:
    verdict = workload.check(records)
    details = workload.details(records)
    details["failed_frac"] = (verdict.failed / max(verdict.attempted, 1),
                              "ratio")
    return {"workload": workload.name, "seed": workload.seed,
            "unit": workload.unit, "ops": len(records),
            "measured_s": math.fsum(r.seconds for r in records),
            "attempted": verdict.attempted, "failed": verdict.failed,
            "problems": verdict.problems, "details": details}


def set_up(workload: Any) -> Tuple[Any, float]:
    """Set up :data:`SETUP_REPEATS` times: the last state, median time.

    Every set-up starts from scratch and builds the same state.
    """
    state, seconds = None, []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup()
        seconds.append(time.perf_counter() - t0)
    return state, statistics.median(seconds)


def run_untraced(workload: Any, seconds: float, import_s: float
                 ) -> Dict[str, Any]:
    """Set up, measure and check; ``setup_s`` adds the start-up time."""
    state, setup_s = set_up(workload)
    result = _summary(workload, measure(workload, state, seconds))
    result["metrics"] = {"setup_s": import_s + setup_s}
    return result


def run_traced(workload: Any, trace_path: Optional[Path]
               ) -> Dict[str, Any]:
    """Per-layer numbers, tracing overhead and the tracing guardrail.

    The same ``min_ops`` operations run untraced and then traced from
    a deep copy of the set-up state; the simulated outputs must match.
    """
    state = workload.setup()
    snapshot = copy.deepcopy(state)
    plain = measure(workload, state, 0.0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = measure(workload, snapshot, 0.0, tracer)
    if trace_path is not None:
        tracer.write_chrome(str(trace_path))
    result = _summary(workload, traced)
    result["plain_outputs"] = [r.output for r in plain]
    result["traced_outputs"] = [r.output for r in traced]
    if result["plain_outputs"] != result["traced_outputs"]:
        result["problems"].append("tracing changed the simulated outputs")
        result["failed"] += 1
    layers = tracer.summary()
    metrics: Dict[str, float] = {}
    for entry in spans.LAYERS:
        if entry.key in layers:
            for stat in entry.stats:
                metrics[f"{entry.key}.{stat}"] = layers[entry.key][stat]
    metrics["trace.overhead_frac"] = (
        math.fsum(r.seconds for r in traced)
        / math.fsum(r.seconds for r in plain) - 1.0)
    metrics["trace.sites_missing"] = len(tracer.missing)
    result.update(metrics=metrics, layers=layers, missing=tracer.missing,
                  trace_file=str(trace_path) if trace_path else None)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent spawned "
                             "this process")
    args = parser.parse_args(argv)
    import_s = time.monotonic() - args.started
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](seed=args.seed)
    if args.trace:
        result = run_traced(workload, args.trace_file)
        del result["plain_outputs"], result["traced_outputs"]
    else:
        result = run_untraced(workload, args.seconds, import_s)
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["traced"] = bool(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
