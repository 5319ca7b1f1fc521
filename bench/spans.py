"""Span tracer and the layer table of the traced benchmark run.

The tracer records one span per call into the paper's layers without
editing ``repro``: :func:`installed` swaps each public callable named
in :data:`LAYERS` for a recording wrapper *at the sites where callers
look it up* (``repro.simulate.session.point`` is the name the session
loop calls, ``repro.core.pointing.point`` the one this benchmark
calls), and restores the originals on exit.

A span holds its layer key, start and end (``time.perf_counter``), the
span that was open when it began, and the request id of the benchmark
operation it belongs to (one per report, session run, calibrated seed
or pass).  Spans stay in memory; :meth:`Tracer.write_chrome` writes
them as Chrome trace-event JSON, which Perfetto opens directly.

A site that no longer resolves -- a refactor renamed or moved the
callable -- is reported as missing instead of crashing the run or
reading as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("calibrate", "session", "pointing", "availability")


def _iterations(result: Any, args: tuple) -> int:
    return int(result.iterations)


def _evaluations(result: Any, args: tuple) -> int:
    return int(result.evaluations)


def _nbytes(*arrays: Any) -> int:
    return sum(int(a.nbytes) for a in arrays if a is not None)


def _batch_bytes_out(batch: Any, args: tuple) -> Tuple[int, int]:
    return 0, _nbytes(batch.step_linear_m, batch.step_angular_rad,
                      batch.positions, batch.eulers)


def _slots_bytes(result: Any, args: tuple) -> Tuple[int, int]:
    batch = args[0]
    return (_nbytes(batch.step_linear_m, batch.step_angular_rad),
            _nbytes(result.connected))


@dataclass(frozen=True)
class Entry:
    """One traced callable: where it is looked up and what it reports.

    ``sites`` are ``(module, attribute path)`` pairs; a dotted path
    names a method on a class.  ``stats`` are the per-layer metrics the
    run reports for it, ``works_in`` the workloads where the callable
    must be hit and ``idle_in`` those where it must not be.
    ``observe`` extracts a value from each call's result (iterations,
    evaluations, byte counts).  A ``count_only`` callable gets a
    counter, not a span: it is called too often for spans to be cheap.
    """

    layer: str
    callable: str
    sites: Tuple[Tuple[str, str], ...]
    stats: Tuple[str, ...]
    works_in: Tuple[str, ...]
    idle_in: Tuple[str, ...]
    observe: Optional[Callable[[Any, tuple], Any]] = None
    count_only: bool = False

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.callable}"


POINT = "core.pointing.point"
_POSE_AT = tuple(("repro.motion.profiles", f"{cls}.pose_at")
                 for cls in ("LinearStrokeProfile", "AngularStrokeProfile"))

#: The layer table: the callables the traced run wraps, grouped by the
#: ``repro`` layer they belong to.  ``works_in`` and ``idle_in`` are
#: predictions the site self-check holds the workloads to.
LAYERS: Tuple[Entry, ...] = (
    Entry("core.pointing", "point",
          (("repro.core.pointing", "point"),
           ("repro.simulate.session", "point"),
           ("repro.simulate.rig", "point")),
          ("calls", "p50_us", "p99_us", "self_s", "iterations_mean",
           "iterations_max", "diverged"),
          ("pointing", "session"), ("availability",), _iterations),
    Entry("core.pointing", "cold_start_seed",
          (("repro.core.pointing", "cold_start_seed"),
           ("repro.simulate.session", "cold_start_seed")),
          ("calls", "p50_us", "p99_us", "self_s"),
          ("pointing", "session"), ("availability",)),
    Entry("core.inverse", "solve", (("repro.core.inverse", "solve"),),
          ("calls", "p50_us", "total_s", "iterations_mean", "diverged",
           "calls_per_point"),
          ("pointing", "session"), ("availability",), _iterations),
    Entry("core.gma", "GmaModel.beam",
          (("repro.core.gma", "GmaModel.beam"),),
          ("calls", "beams_per_point"),
          ("pointing",), ("availability",), count_only=True),
    Entry("link.channel", "FsoChannel.evaluate",
          (("repro.link.channel", "FsoChannel.evaluate"),),
          ("calls", "p50_us", "total_s"),
          ("session", "calibrate"), ("pointing", "availability")),
    Entry("core.alignment", "search", (("repro.core.alignment", "search"),),
          ("calls", "total_s", "evaluations_mean"),
          ("calibrate",), ("availability",), _evaluations),
    Entry("core.kspace", "BoardRig.collect_samples",
          (("repro.core.kspace", "BoardRig.collect_samples"),),
          ("calls", "total_s"), ("calibrate",), ("availability",)),
    Entry("core.kspace", "BoardRig.voltages_hitting",
          (("repro.core.kspace", "BoardRig.voltages_hitting"),),
          ("calls", "total_s"), ("calibrate",), ("availability",)),
    Entry("core.kspace", "fit_gma", (("repro.simulate.rig", "fit_gma"),),
          ("calls", "total_s"), ("calibrate",), ("availability",)),
    Entry("core.mapping", "fit_mapping",
          (("repro.simulate.rig", "fit_mapping"),),
          ("total_s",), ("calibrate",), ("availability",)),
    Entry("core.mapping", "coincidence_residuals",
          (("repro.core.mapping", "coincidence_residuals"),),
          ("calls",), ("calibrate",), ("availability",), count_only=True),
    Entry("galvo", "GalvoHardware.apply",
          (("repro.galvo.galvo", "GalvoHardware.apply"),),
          ("calls", "total_s"), ("calibrate",), ("availability",)),
    Entry("vrh", "VrhTracker.report",
          (("repro.vrh.tracker", "VrhTracker.report"),),
          ("calls", "total_s"), ("session",), ("availability",)),
    Entry("motion", "pose_at",
          _POSE_AT + (("repro.motion.arbitrary", "HandheldProfile.pose_at"),),
          ("calls", "total_s"), ("session",), ("availability",)),
    Entry("link.state", "LinkStateMachine.observe",
          (("repro.link.state", "LinkStateMachine.observe"),),
          ("calls", "total_s"), ("session",), ("pointing", "availability")),
    Entry("net", "ThroughputMeter.record",
          (("repro.net.iperf", "ThroughputMeter.record"),),
          ("calls", "total_s"), ("session",), ("pointing", "availability")),
    Entry("simulate.session", "PrototypeSession.run",
          (("repro.simulate.session", "PrototypeSession.run"),),
          ("total_s", "self_s"), ("session",), ("pointing", "availability")),
    Entry("motion.batch", "generate_batch",
          (("repro.motion.batch", "generate_batch"),),
          ("total_s", "bytes_out"), ("availability",),
          ("calibrate", "session", "pointing"), _batch_bytes_out),
    Entry("simulate.batch", "simulate_batch",
          (("repro.simulate.batch", "simulate_batch"),),
          ("total_s", "bytes_in", "bytes_out"), ("availability",),
          ("calibrate", "session", "pointing"), _slots_bytes),
    Entry("parallel", "parallel_map_arrays",
          (("repro.motion.batch", "parallel_map_arrays"),
           ("repro.simulate.batch", "parallel_map_arrays")),
          ("calls", "total_s"), ("availability",),
          ("calibrate", "session", "pointing")),
)

#: Run-level metrics of the traced run.
TRACE_METRICS = ("trace.overhead_frac", "trace.sites_missing")

_UNITS = {
    "calls": "count", "p50_us": "us", "p99_us": "us", "total_s": "s",
    "self_s": "s", "iterations_mean": "count", "iterations_max": "count",
    "diverged": "count", "calls_per_point": "ratio",
    "beams_per_point": "ratio", "evaluations_mean": "count",
    "bytes_in": "B", "bytes_out": "B",
    "overhead_frac": "ratio", "sites_missing": "count",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with units."""
    units = {f"{entry.key}.{stat}": _UNITS[stat]
             for entry in LAYERS for stat in entry.stats}
    for name in TRACE_METRICS:
        units[name] = _UNITS[name.rsplit(".", 1)[1]]
    return units


class Tracer:
    """In-memory spans and counters for one traced phase.

    Wrappers record only while an operation is open (between
    :meth:`begin_op` and :meth:`end_op`), so untimed work around the
    operations -- input generation, output checks -- stays out of the
    per-layer numbers.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: (span id, key, start, end, parent id, request id, failed, value)
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()  # (key, innermost span id)
        self.missing: List[str] = []
        self.resolved: set = set()
        self.active = False
        self.request = 0
        self._next_id = 1
        self._stack: List[int] = [0]

    def open(self) -> Tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def close(self, span_id: int, key: str, start: float, end: float,
              parent: int, failed: bool, value: Any = None) -> None:
        self._stack.pop()
        self.spans.append((span_id, key, start, end, parent, self.request,
                           failed, value))

    def count(self, key: str) -> None:
        self.counts[(key, self._stack[-1])] += 1

    def begin_op(self, request: int) -> Tuple[int, int, float]:
        """Open the root span of one benchmark operation."""
        self.request = request
        span_id, parent = self.open()
        self.active = True
        return span_id, parent, time.perf_counter()

    def end_op(self, token: Tuple[int, int, float], key: str) -> None:
        end = time.perf_counter()
        self.active = False
        span_id, parent, start = token
        self.close(span_id, key, start, end, parent, False)

    # -- results ---------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-callable statistics, keyed by :attr:`Entry.key`."""
        durations: Dict[str, List[float]] = defaultdict(list)
        children_s: Dict[int, float] = defaultdict(float)
        key_of: Dict[int, str] = {}
        parent_of: Dict[int, int] = {}
        values: Dict[str, List[Any]] = defaultdict(list)
        failures: Counter = Counter()
        for span_id, key, start, end, parent, _, failed, value in self.spans:
            durations[key].append(end - start)
            children_s[parent] += end - start
            key_of[span_id] = key
            parent_of[span_id] = parent
            if failed:
                failures[key] += 1
            elif value is not None:
                values[key].append(value)
        self_s: Dict[str, float] = defaultdict(float)
        for span_id, key, start, end, *_ in self.spans:
            self_s[key] += (end - start) - children_s.get(span_id, 0.0)

        def under(span_id: int, key: str) -> bool:
            while span_id:
                if key_of.get(span_id) == key:
                    return True
                span_id = parent_of.get(span_id, 0)
            return False

        counts: Counter = Counter()
        beams_in_point = 0
        for (key, span_id), n in self.counts.items():
            counts[key] += n
            if key == "core.gma.GmaModel.beam" and under(span_id, POINT):
                beams_in_point += n
        points = len(durations.get(POINT, ()))
        solves_in_point = sum(
            1 for span_id, key, *_ in self.spans
            if key == "core.inverse.solve"
            and key_of.get(parent_of[span_id]) == POINT)

        out: Dict[str, Dict[str, Any]] = {}
        for entry in LAYERS:
            key = entry.key
            if not any(f"{m}:{a}" in self.resolved for m, a in entry.sites):
                continue
            times = sorted(durations.get(key, ()))
            vals = values.get(key, [])
            stats: Dict[str, Callable[[], Any]] = {
                "calls": lambda: (counts[key] if entry.count_only
                                  else len(times)),
                "p50_us": lambda: percentile(times, 50) * 1e6,
                "p99_us": lambda: percentile(times, 99) * 1e6,
                "total_s": lambda: math.fsum(times),
                "self_s": lambda: self_s.get(key, 0.0),
                "diverged": lambda: failures[key],
                "iterations_mean": lambda: _mean(vals),
                "iterations_max": lambda: max(vals, default=0),
                "evaluations_mean": lambda: _mean(vals),
                "calls_per_point": lambda: _ratio(solves_in_point, points),
                "beams_per_point": lambda: _ratio(beams_in_point, points),
                "bytes_in": lambda: _mean([v[0] for v in vals]),
                "bytes_out": lambda: _mean([v[1] for v in vals]),
            }
            # ``calls`` always: the site self-check reads it.
            out[key] = {stat: stats[stat]()
                        for stat in ("calls",) + entry.stats}
        return out

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, (span_id, key, start, end, parent, request, failed,
                    _) in enumerate(sorted(self.spans, key=lambda s: s[2])):
                event = {
                    "name": key, "cat": key.rsplit(".", 1)[0], "ph": "X",
                    "ts": (start - self.origin) * 1e6,
                    "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
                    "args": {"span": span_id, "parent": parent or None,
                             "request": request, "failed": failed},
                }
                handle.write(("," if i else "") + json.dumps(event) + "\n")
            handle.write("]}\n")


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _mean(values: List[Any]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of one site, or raise."""
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        value = owner.__dict__[attribute]  # defined here, not inherited
    else:
        value = getattr(owner, attribute)
    if not callable(value):
        raise TypeError(f"{module_name}.{path} is not callable")
    return owner, attribute, value


def _span_wrapper(tracer: Tracer, entry: Entry, fn: Callable) -> Callable:
    key, observe = entry.key, entry.observe

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tracer.active:
            return fn(*args, **kwargs)
        span_id, parent = tracer.open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.close(span_id, key, start, time.perf_counter(), parent,
                         True)
            raise
        end = time.perf_counter()
        tracer.close(span_id, key, start, end, parent, False,
                     observe(result, args) if observe else None)
        return result

    return traced


def _count_wrapper(tracer: Tracer, entry: Entry, fn: Callable) -> Callable:
    key = entry.key

    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        if tracer.active:
            tracer.count(key)
        return fn(*args, **kwargs)

    return counted


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every resolvable site in :data:`LAYERS`; restore on exit."""
    originals = []
    try:
        for entry in LAYERS:
            wrap = _count_wrapper if entry.count_only else _span_wrapper
            for module_name, path in entry.sites:
                site = f"{module_name}:{path}"
                try:
                    owner, attribute, fn = _resolve(module_name, path)
                except (ImportError, AttributeError, KeyError,
                        TypeError):
                    tracer.missing.append(site)
                    continue
                originals.append((owner, attribute, fn))
                setattr(owner, attribute, wrap(tracer, entry, fn))
                tracer.resolved.add(site)
        yield tracer
    finally:
        for owner, attribute, fn in reversed(originals):
            setattr(owner, attribute, fn)
