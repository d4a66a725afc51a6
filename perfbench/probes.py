"""Probes the benchmark installs around the program's public functions.

Two kinds, both patched in from the benchmark's side so the program
itself carries no benchmark code:

* :class:`AnswerClock` — the only probe active in an untraced run. It
  times every ``ServicePipeline.process_due`` / ``drain`` call and
  charges that call's duration to each answer it returned (the caller
  waits for the whole batch). Its first call also marks the end of
  set-up: the first served tick.
* :class:`LayerTracer` — the traced run. Each probe opens a span (name,
  start, end, parent) around one public function of one layer; spans
  stay in memory and are written out when the session ends. A layer's
  self time is the sum of its spans' durations minus their children's.

A probe whose target no longer exists (a later change deleted it) is
skipped and reports zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

perf = time.perf_counter


def _resolve(module_name: str, attr_path: str):
    """``(owner, attribute name, current value)`` or ``None`` if gone."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = owner.__dict__.get(name) if isinstance(owner, type) else getattr(
        owner, name, None
    )
    if target is None:
        return None
    return owner, name, target


class _Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, module_name: str, attr_path: str, make) -> bool:
        found = _resolve(module_name, attr_path)
        if found is None:
            return False
        owner, name, target = found
        setattr(owner, name, make(target))
        self._undo.append((owner, name, target))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, name, target = self._undo.pop()
            setattr(owner, name, target)


# -- the untraced probe -------------------------------------------------------

#: Iterations of the speed witness; one sample takes about
#: :data:`REFERENCE_SAMPLE_S` on the machine the benchmark was tuned on.
SPEED_LOOP = 2000
REFERENCE_SAMPLE_S = 170e-6


def speed_sample() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    t0 = perf()
    acc = 0
    for i in range(SPEED_LOOP):
        acc += i * i % 7
    return perf() - t0


class AnswerClock:
    """Answer latency and the first served tick, from the batch calls.

    Around every call it also takes two :func:`speed_sample` (before and
    after, outside the timed call): the machine's speed at the moments
    the workload runs. Each call's duration is rescaled to the reference
    machine by the two samples around it; :attr:`speed_factor` does the
    same for whole-session times with all of them.
    """

    TARGETS = (
        ("repro.service.pipeline", "ServicePipeline.process_due"),
        ("repro.service.pipeline", "ServicePipeline.drain"),
    )

    def __init__(self) -> None:
        self.first_tick: float | None = None
        #: ``(speed-adjusted call duration s, answers returned)`` per call.
        self.calls: list[tuple[float, int]] = []
        self.speed: list[float] = []
        self._patches = _Patches()

    def install(self) -> "AnswerClock":
        for module_name, attr_path in self.TARGETS:
            if not self._patches.replace(module_name, attr_path, self._wrap):
                raise RuntimeError(f"answer probe target {attr_path} is gone")
        return self

    def restore(self) -> None:
        self._patches.restore()

    def _wrap(self, fn: Callable) -> Callable:
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if clock.first_tick is None:
                clock.first_tick = perf()
            before = speed_sample()
            t0 = perf()
            out = fn(*args, **kwargs)
            duration = perf() - t0
            after = speed_sample()
            clock.speed += (before, after)
            if out:
                # Rescaled by the speed right around this call: a
                # momentary slowdown of the machine is not the program's.
                clock.calls.append((
                    duration * 2 * REFERENCE_SAMPLE_S / (before + after),
                    len(out),
                ))
            return out

        return timed

    @property
    def speed_factor(self) -> float:
        """Reference sample time ÷ this session's mean sample time."""
        return REFERENCE_SAMPLE_S * len(self.speed) / sum(self.speed)

    @property
    def samples(self) -> int:
        return sum(n for _, n in self.calls)


def weighted_quantile(calls, q: float) -> float:
    """Nearest-rank ``q`` quantile over answers of ``(duration, n)`` calls.

    Each call's duration counts once for every answer it returned.
    """
    ordered = sorted(calls)
    total = sum(n for _, n in ordered)
    rank = max(1, math.ceil(q * total))
    seen = 0
    for duration, n in ordered:
        seen += n
        if seen >= rank:
            return duration
    raise ValueError("no answers")


# -- the traced run -----------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One public function of one layer.

    ``count`` optionally maps ``(args, result)`` to a tuple of numbers
    accumulated per probe (records returned, batches cut, ...).
    """

    layer: str
    name: str
    module: str
    attr: str
    count: Callable[[tuple, Any], tuple] | None = None


def _n_result(args, result) -> tuple:
    return (len(result),)


def _batches(args, result) -> tuple:
    return (len(result), sum(len(b) for b in result))


def _is_resume(args, result) -> tuple:
    # ZoneWorker has no public flag for a resumed (respawned) start.
    return (1 if getattr(args[0], "_resume", False) else 0,)


#: Every probed boundary. Module-level functions are patched where their
#: caller looks them up (``from x import f`` binds ``f`` in the caller).
PROBES: tuple[Probe, ...] = (
    # rf — the synthetic channel and its multipath model.
    Probe("rf", "rf.sample_rssi", "repro.rf.channel", "RFChannel.sample_rssi"),
    Probe("rf", "rf.mean_rssi", "repro.rf.channel", "RFChannel.mean_rssi"),
    Probe("rf", "rf.sample_rssi_matrix", "repro.rf.channel",
          "RFChannel.sample_rssi_matrix"),
    Probe("rf", "rf.mean_rssi_matrix", "repro.rf.channel",
          "RFChannel.mean_rssi_matrix"),
    # hardware — event simulator, record stream, middleware.
    Probe("hardware", "hardware.advance", "repro.hardware.streams",
          "SimulatorRecordStream.advance", _n_result),
    Probe("hardware", "hardware.run_for", "repro.hardware.simulator",
          "TestbedSimulator.run_for"),
    Probe("hardware", "hardware.ingest", "repro.hardware.middleware",
          "MiddlewareServer.ingest"),
    Probe("hardware", "hardware.snapshot", "repro.hardware.middleware",
          "MiddlewareServer.snapshot"),
    Probe("hardware", "hardware.freshness", "repro.hardware.middleware",
          "MiddlewareServer.reader_freshness"),
    Probe("hardware", "hardware.coverage", "repro.hardware.middleware",
          "MiddlewareServer.coverage"),
    # service — ingest, micro-batcher, pipeline, cache, ladder.
    Probe("service", "service.submit", "repro.service.ingest",
          "IngestionLoop.submit"),
    Probe("service", "service.deliver", "repro.service.ingest",
          "IngestionLoop.deliver_pending"),
    Probe("service", "service.process_due", "repro.service.pipeline",
          "ServicePipeline.process_due"),
    Probe("service", "service.drain", "repro.service.pipeline",
          "ServicePipeline.drain"),
    Probe("service", "service.poll", "repro.service.batcher",
          "MicroBatcher.poll", _batches),
    Probe("service", "service.batcher_drain", "repro.service.batcher",
          "MicroBatcher.drain", _batches),
    Probe("service", "service.cache_many", "repro.service.cache",
          "InterpolationCache.get_or_compute_many"),
    Probe("service", "service.cache_one", "repro.service.cache",
          "InterpolationCache.get_or_compute"),
    # engine — batch VIRE / LANDMARC and lattice grouping.
    Probe("engine", "engine.vire", "repro.engine.batch",
          "BatchEngine.estimate_outcomes", _n_result),
    Probe("engine", "engine.landmarc", "repro.engine.batch",
          "BatchLandmarc.estimate_outcomes", _n_result),
    # zones — worker and gateway, failover included.
    Probe("zones", "zones.step", "repro.zones.worker", "ZoneWorker.step"),
    Probe("zones", "zones.start", "repro.zones.worker", "ZoneWorker.start",
          _is_resume),
    Probe("zones", "zones.gateway", "repro.zones.gateway", "ZoneGateway.run"),
    # runtime — the checkpoint write-ahead log.
    Probe("runtime", "runtime.append", "repro.runtime.checkpoint",
          "CheckpointWriter.append_result"),
    Probe("runtime", "runtime.snapshot", "repro.runtime.checkpoint",
          "CheckpointWriter.write_snapshot"),
    Probe("runtime", "runtime.load", "repro.zones.worker", "load_checkpoint"),
    Probe("runtime", "runtime.load", "repro.service.session",
          "load_checkpoint"),
    # loadtest — the schedule generator (an input, timed for set-up).
    Probe("loadtest", "loadtest.schedule", "repro.loadtest.generator",
          "generate_schedule"),
)

#: The workloads' entry calls: spans, but no layer's time.
ENTRY_PROBES: tuple[Probe, ...] = (
    Probe("entry", "entry.service", "repro.service.session",
          "LocalizationService.run"),
    Probe("entry", "entry.loadtest", "repro.loadtest",
          "run_load_test"),
)

LAYERS = ("rf", "hardware", "service", "engine", "zones", "runtime",
          "loadtest")


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: list = field(default_factory=list)


class LayerTracer:
    """Spans around every :data:`PROBES` target, kept in memory.

    A span is ``(id, parent id, probe name, start s, end s)``; ``-1`` is
    the root. Self time is accumulated on exit: the span's duration minus
    the durations of its direct children.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, _Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.installed: set[str] = set()
        self.vire_batches: list[list] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.root_self_s = 0.0
        self._stack: list[list] = []  # [span id, children seconds]
        self._patches = _Patches()

    def install(self) -> "LayerTracer":
        for probe in PROBES + ENTRY_PROBES:
            self.layer_of[probe.name] = probe.layer
            self.stats.setdefault(probe.name, _Stat())
            if self._patches.replace(
                probe.module, probe.attr, lambda fn, p=probe: self._wrap(fn, p)
            ):
                self.installed.add(probe.name)
        return self

    def restore(self) -> None:
        self._patches.restore()

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        tracer = self
        stat = self.stats[probe.name]
        spans = self.spans
        stack = self._stack
        name = probe.name
        count = probe.count
        is_vire = name == "engine.vire"
        is_cache = name.startswith("service.cache")

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            if is_cache:
                cache = args[0]
                hits0, misses0 = cache.hits, cache.misses
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_self_s += duration - frame[1]
                spans[span_id] = (span_id, parent, name, t0, t1)
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
            if count is not None:
                stat.counts.append((duration,) + count(args, result))
            if is_vire:
                tracer.vire_batches.append(list(args[1]))
            if is_cache:
                tracer.cache_hits += cache.hits - hits0
                tracer.cache_misses += cache.misses - misses0
            return result

        return spanned

    # -- derived numbers ------------------------------------------------------

    def _sum(self, name: str, index: int = 0) -> int:
        """Sum of the ``index``-th number ``Probe.count`` returned."""
        return sum(c[1 + index] for c in self.stats[name].counts)

    def layer_self_s(self, layer: str) -> float:
        return sum(
            s.self_s for n, s in self.stats.items()
            if self.layer_of[n] == layer
        )

    def layer_entries(self, layer: str) -> int:
        """Calls into ``layer`` from outside it (nested calls not counted)."""
        spans = self.spans
        layer_of = self.layer_of
        n = 0
        for _, parent, name, _, _ in spans:
            if layer_of[name] == layer and (
                parent < 0 or layer_of[spans[parent][2]] != layer
            ):
                n += 1
        return n

    def unique_lattice_ratio(self) -> float:
        """Distinct (reading, reader) lattices per VIRE call ÷ all of them."""
        unique = total = 0
        for readings in self.vire_batches:
            rows = [
                row.tobytes()
                for reading in readings
                for row in reading.reference_rssi
            ]
            unique += len(set(rows))
            total += len(rows)
        return unique / total if total else 0.0

    def metrics(self) -> dict[str, float]:
        """The benchmark's ``per_layer`` numbers from this session's spans."""
        st = self.stats
        batches = self._sum("service.poll") + self._sum("service.batcher_drain")
        batched = (
            self._sum("service.poll", 1) + self._sum("service.batcher_drain", 1)
        )
        lookups = self.cache_hits + self.cache_misses
        respawn_s = sum(
            duration for duration, resumed in st["zones.start"].counts
            if resumed
        )
        return {
            "rf.calls": self.layer_entries("rf"),
            "rf.self_s": self.layer_self_s("rf"),
            "hardware.sim_self_s": (
                st["hardware.advance"].self_s + st["hardware.run_for"].self_s
            ),
            "hardware.records": self._sum("hardware.advance"),
            "hardware.ingest_s": st["hardware.ingest"].total_s,
            "hardware.snapshot_calls": st["hardware.snapshot"].calls,
            "hardware.snapshot_s": st["hardware.snapshot"].total_s,
            "engine.vire_calls": st["engine.vire"].calls,
            "engine.vire_readings": self._sum("engine.vire"),
            "engine.vire_s": st["engine.vire"].total_s,
            "engine.landmarc_calls": st["engine.landmarc"].calls,
            "engine.landmarc_s": st["engine.landmarc"].total_s,
            "engine.unique_lattice_ratio": self.unique_lattice_ratio(),
            "service.ingest_s": (
                st["service.submit"].total_s + st["service.deliver"].total_s
            ),
            "service.batches": batches,
            "service.batch_size_mean": batched / batches if batches else 0.0,
            "service.pipeline_self_s": (
                st["service.process_due"].self_s + st["service.drain"].self_s
            ),
            "service.cache_calls": (
                st["service.cache_many"].calls + st["service.cache_one"].calls
            ),
            "service.cache_s": (
                st["service.cache_many"].total_s
                + st["service.cache_one"].total_s
            ),
            "service.cache_hit_ratio": (
                self.cache_hits / lookups if lookups else 0.0
            ),
            "zones.step_calls": st["zones.step"].calls,
            "zones.step_self_s": st["zones.step"].self_s,
            "zones.gateway_self_s": st["zones.gateway"].self_s,
            "zones.respawn_s": respawn_s,
            "runtime.ckpt_appends": st["runtime.append"].calls,
            "runtime.ckpt_append_s": st["runtime.append"].total_s,
            "runtime.ckpt_snapshots": st["runtime.snapshot"].calls,
            "runtime.ckpt_snapshot_s": st["runtime.snapshot"].total_s,
            "loadtest.schedule_s": st["loadtest.schedule"].total_s,
        }

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time ÷ the entry call's wall time."""
        wall = self.entry_wall_s()
        return {
            layer: self.layer_self_s(layer) / wall if wall else 0.0
            for layer in LAYERS
        }

    def entry_wall_s(self) -> float:
        """Wall time of the workload's outermost probed call."""
        return sum(s[4] - s[3] for s in self.spans if s[1] < 0)

    def coverage(self) -> float:
        """Self time of every span below the entry call ÷ its wall time:
        the share of the workload the layer probes account for."""
        wall = self.entry_wall_s()
        covered = sum(s.self_s for s in self.stats.values())
        return (covered - self.root_self_s) / wall if wall else 0.0

    def write(self, path) -> None:
        """One JSON line per span: id, parent, name, start and end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
