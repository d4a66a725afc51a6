"""The service's session loop, and the synchronous facade over it.

:class:`ServiceSession` is the one per-tick loop of the streaming
service. Over a built :class:`~repro.hardware.deployment.Deployment` it
warms up, then steps the seeded beacon stream one chunk at a time —
deliver the chunk's records, submit due queries, execute due batches,
write-ahead-log the results — and finally drains, seals the checkpoint
and reports. Every caller drives this same loop:
:class:`LocalizationService` runs it to exhaustion for an unzoned
deployment, and :class:`~repro.zones.worker.ZoneWorker` adds a zone's
world and tag surface so the gateway can step many zones in lockstep.

:class:`LocalizationService` is what tests, benchmarks and the CLI call:
give it a :class:`~repro.experiments.scenarios.TestbedScenario` (or an
environment name) and a duration, and it builds the deployment and runs
the loop — deterministically, because every clock involved is seeded:
simulation time doubles as the service clock, and the wall-clock used
for latency histograms is injectable.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..exceptions import CheckpointError, ConfigurationError, SimulationError
from ..experiments.scenarios import TestbedScenario, paper_scenario
from ..hardware.deployment import Deployment, build_paper_deployment
from ..hardware.streams import SimulatorRecordStream
from ..runtime.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
    validate_header,
)
from ..obs import Tracer, current_tracer, use_tracer
from ..types import estimation_error
from .metrics import MetricsRegistry, get_service_logger, log_event
from .pipeline import ServiceConfig, ServicePipeline, ServiceResult

if TYPE_CHECKING:  # runtime import is lazy (only when a plan is passed)
    from ..faults.crash import CrashPoint
    from ..faults.plan import FaultPlan

__all__ = [
    "SessionReport",
    "ServiceSession",
    "LocalizationService",
    "result_from_doc",
    "result_witness_entry",
]


def _tag_id(label: Any) -> str:
    """A tracking-tag label as the simulator's tag id."""
    return f"tag-{label}"


def result_witness_entry(result: ServiceResult) -> dict[str, Any]:
    """One result's entry in a determinism witness document.

    Only the seed-deterministic fields: wall-clock latency and free-form
    diagnostics are excluded by design. Shared by
    :meth:`SessionReport.witness_document` and the zone gateway's
    interim-result witness
    (:meth:`~repro.zones.gateway.MultiZoneReport.witness_document`).
    """
    return {
        "tag_id": result.tag_id,
        "position": [float(result.position[0]), float(result.position[1])],
        "estimator": result.estimator,
        "degraded": bool(result.degraded),
        "reason": result.reason,
        "requested_at_s": float(result.requested_at_s),
        "completed_at_s": float(result.completed_at_s),
    }


def _result_to_doc(result: ServiceResult) -> dict[str, Any]:
    """Serialize one :class:`ServiceResult` into a WAL result document.

    Diagnostics are copied as they are, so the document is JSON-ready only
    through :meth:`CheckpointWriter.append_result`, which converts NumPy
    values, sets and non-``str`` keys when it encodes the line.
    """
    return {
        "tag_id": result.tag_id,
        "position": [float(result.position[0]), float(result.position[1])],
        "estimator": result.estimator,
        "degraded": bool(result.degraded),
        "reason": result.reason,
        "requested_at_s": float(result.requested_at_s),
        "completed_at_s": float(result.completed_at_s),
        "processing_latency_s": float(result.processing_latency_s),
        "diagnostics": dict(result.diagnostics),
    }


def result_from_doc(doc: Mapping[str, Any]) -> ServiceResult:
    """Rebuild a :class:`ServiceResult` from a WAL result document.

    Deterministic fields round-trip exactly (JSON preserves float
    ``repr``); diagnostics come back as plain JSON types, which is why
    the determinism witness excludes them.
    """
    position = doc["position"]
    return ServiceResult(
        tag_id=str(doc["tag_id"]),
        position=(float(position[0]), float(position[1])),
        estimator=str(doc["estimator"]),
        degraded=bool(doc["degraded"]),
        reason=doc.get("reason"),
        requested_at_s=float(doc["requested_at_s"]),
        completed_at_s=float(doc["completed_at_s"]),
        processing_latency_s=float(doc["processing_latency_s"]),
        diagnostics=dict(doc.get("diagnostics") or {}),
    )


@dataclass(frozen=True)
class SessionReport:
    """Everything one streaming session produced.

    Attributes
    ----------
    results:
        Every served localization, in completion order.
    summary:
        The pipeline's headline numbers (cache hit rate, batches
        flushed, degraded count, latency quantiles, ...) plus session
        totals (duration, records streamed, throughput).
    metrics:
        The full registry, for Prometheus rendering or JSON dumps.
    errors_m:
        Per-result localization error in metres against the deployment's
        ground truth (same order as ``results``); empty when ground
        truth is unavailable for a tag.
    calibration_events:
        The drift corrector's quarantine/probation/readmit transitions,
        in occurrence order (empty when the calibration loop is
        disabled). JSON-native dicts; part of the determinism witness.
    """

    results: tuple[ServiceResult, ...]
    summary: Mapping[str, float]
    metrics: MetricsRegistry
    errors_m: tuple[float, ...] = ()
    calibration_events: tuple[Mapping[str, Any], ...] = ()

    @property
    def mean_error_m(self) -> float:
        """Mean localization error over results with ground truth."""
        return sum(self.errors_m) / len(self.errors_m) if self.errors_m else float("nan")

    def render_prometheus(self) -> str:
        return self.metrics.render_prometheus()

    def witness_document(self) -> dict[str, Any]:
        """The session's *deterministic* observable behaviour, as JSON types.

        This is the object the crash-recovery witness compares: a seeded
        session killed at an arbitrary tick and resumed must produce a
        byte-identical witness (``json.dumps(..., sort_keys=True)``) to
        the uninterrupted run. Only fields that are pure functions of
        the seed belong here — wall-clock latencies, cache hit rates
        (cold after a resume) and free-form diagnostics are excluded by
        design.
        """
        reasons: dict[str, int] = {}
        for r in self.results:
            if r.degraded and r.reason is not None:
                reasons[r.reason] = reasons.get(r.reason, 0) + 1
        doc = {
            "results": [result_witness_entry(r) for r in self.results],
            "errors_m": [float(e) for e in self.errors_m],
            "n_results": len(self.results),
            "degraded_reasons": {k: reasons[k] for k in sorted(reasons)},
        }
        if self.calibration_events:
            # Present only when the calibration loop produced events, so
            # pre-calibration witnesses stay byte-identical.
            doc["calibration_events"] = [
                dict(e) for e in self.calibration_events
            ]
        return doc


class ServiceSession:
    """A steppable, checkpointable localization session over one deployment.

    The service's single per-tick loop. :meth:`start` warms up and arms
    the session, each :meth:`step` processes one stream chunk,
    :meth:`finish` drains, seals the checkpoint and assembles the report,
    and :meth:`run` does all three. :meth:`interrupt` (graceful) and
    :meth:`abort` (simulated hard kill) end a session early.

    Parameters
    ----------
    deployment:
        The built testbed the session streams from.
    config:
        Service knobs.
    identity:
        The world keys of the checkpoint header (scenario, seed, ...),
        written to and checked against a checkpoint. Its ``"zone"``
        entry — ``None`` for an unzoned session — also labels the
        session's spans and log events.
    tags:
        Every tracking-tag id the session hosts, in header order.
    active:
        The tag ids queried from the start (default: all of ``tags``).
    metrics:
        Registry for the pipeline (default: a fresh un-namespaced one).
    fault_plan:
        Attached to the simulator's record path after warm-up.
    checkpoint_path / resume / crash_point:
        Write-ahead checkpointing, replay-based resume and the simulated
        hard-kill hook — see :meth:`LocalizationService.run`.
    perf_clock:
        Monotonic clock used for latency measurement (injectable so a
        test can make latency deterministic).
    warmup_max_s:
        Cap on the reference-coverage warm-up phase before queries start.
    query_schedule:
        Open-loop arrivals ``(t_rel_s, label)`` relative to the session
        start, replacing the per-tag query interval (load harness).
    """

    def __init__(
        self,
        deployment: Deployment,
        config: ServiceConfig,
        identity: Mapping[str, Any],
        *,
        tags: Sequence[str],
        active: Iterable[str] | None = None,
        metrics: MetricsRegistry | None = None,
        fault_plan: "FaultPlan | None" = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume: bool = False,
        crash_point: "CrashPoint | None" = None,
        perf_clock: Callable[[], float] = time.perf_counter,
        warmup_max_s: float = 120.0,
        query_schedule: Sequence[tuple[float, str]] | None = None,
    ):
        self.zone: str | None = identity.get("zone")
        self._name = "session" if self.zone is None else f"zone {self.zone!r}"
        if resume and checkpoint_path is None:
            raise ConfigurationError("resume=True requires a checkpoint_path")
        if checkpoint_path is not None and config.engine.precision != "exact":
            # Checkpoint resume replays the stream and verifies the
            # reconstruction byte-exactly; only the bitwise tier can
            # honour that witness.
            kind = "sessions" if self.zone is None else "zone sessions"
            raise ConfigurationError(
                f"checkpointed {kind} require engine precision 'exact', "
                f"got {config.engine.precision!r}"
            )
        self.deployment = deployment
        self.config = config
        self.identity = dict(identity)
        self.tags = tuple(tags)
        self._active: set[str] = set(self.tags if active is None else active)
        self.pipeline = ServicePipeline(
            deployment.grid,
            deployment.simulator.middleware,
            config,
            metrics=metrics,
            perf_clock=perf_clock,
        )
        self.metrics = self.pipeline.metrics
        self._fault_plan = fault_plan
        self._injector = None
        self._checkpoint_path = checkpoint_path
        self._resume = bool(resume)
        self._crash_point = crash_point
        self._perf_clock = perf_clock
        self.warmup_max_s = float(warmup_max_s)
        self._logger = get_service_logger()
        self._admission = None
        # The schedule cursor lives on the session instance, so a fresh
        # session (respawn, resume) replays the schedule from the top —
        # exactly the property journal gap replay needs.
        self._query_schedule: tuple[tuple[float, str], ...] | None = (
            None
            if query_schedule is None
            else tuple((float(t), str(label)) for t, label in query_schedule)
        )
        self._sched_i = 0

        self._stream: SimulatorRecordStream | None = None
        self._chunks = None
        self._writer: CheckpointWriter | None = None
        self._restored: CheckpointState | None = None
        self._next_query: dict[str, float] = {}
        self._records_dispatched = 0
        self._wal_index = 0
        self._next_snapshot: float | None = None
        self._last_cut: dict | None = None
        self._replay_until: float | None = None
        self._interrupted = False
        self._finished = False
        self._wall_start = 0.0
        self._start_s = 0.0

    @property
    def simulator(self):
        return self.deployment.simulator

    @property
    def now(self) -> float:
        """The session's simulation clock."""
        return self.simulator.now

    def checkpoint_header(self, duration_s: float) -> dict[str, Any]:
        """Session identity written to (and checked against) a checkpoint."""
        header = {
            **self.identity,
            "tags": list(self.tags),
            "duration_s": float(duration_s),
            "query_interval_s": float(self.config.query_interval_s),
            "stream_step_s": float(self.config.stream_step_s),
        }
        if self.config.calibration is not None:
            # Identity key only when enabled: quarantine state is part of
            # the checkpoint, so a calibrating session must not resume a
            # non-calibrating file (and vice versa), while disabled
            # sessions keep the pre-calibration header byte-identical.
            header["calibration"] = True
        return header

    def set_admission(self, admission) -> None:
        """Attach an admission gate (duck typed: ``admit(now_s) -> bool``).

        Consulted before each due query is submitted; a shed query's
        schedule slot still advances (shed-newest — see
        :class:`~repro.zones.failover.ZoneAdmission`). ``None`` (the
        default) leaves the query path untouched.
        """
        self._admission = admission

    # -- lifecycle -------------------------------------------------------------

    def start(self, duration_s: float) -> None:
        """Warm up and arm the session; :meth:`step` then drives ticks."""
        if self._stream is not None:
            raise SimulationError(f"{self._name} already started")
        self._wall_start = self._perf_clock()
        header = self.checkpoint_header(duration_s)
        if self._resume:
            self._restored = load_checkpoint(self._checkpoint_path)
            validate_header(self._restored, header)
        if self._checkpoint_path is not None:
            self._writer = CheckpointWriter(
                self._checkpoint_path, append=self._resume
            )
            if self._resume:
                self._writer.write_marker("resume", t_cut=self._restored.t_cut)
            else:
                self._writer.write_header(**header)

        simulator = self.simulator
        pipeline = self.pipeline
        stream = SimulatorRecordStream(simulator, step_s=self.config.stream_step_s)
        stream.__enter__()
        self._stream = stream
        try:
            with current_tracer().span("zone.warmup", zone=self.zone) as wsp:
                warmed_s = self._warm_up(stream)
                wsp.set("warmed_until_s", float(warmed_s))
            # Baseline capture must land between warm-up (coverage
            # complete, series clean) and the injector attaching.
            pipeline.arm_calibration(simulator.now)
            if self._fault_plan is not None:
                from ..faults.injector import FaultInjector  # lazy: cycle

                self._injector = FaultInjector(
                    self._fault_plan, metrics=pipeline.metrics
                )
                simulator.set_fault_injector(self._injector)
            if self._restored is not None:
                pipeline.restore_checkpoint_state(
                    self._restored.snapshot["state"],
                    [result_from_doc(d) for d in self._restored.results],
                )
                pipeline.begin_replay()
                self._replay_until = self._restored.t_cut
            self._start_s = simulator.now
            self._next_query = {tag: simulator.now for tag in sorted(self._active)}
            self._wal_index = len(pipeline.results)
            log_event(
                self._logger, "zone_session_start",
                zone=self.zone, tags=len(self._active),
                duration=duration_s, t=self._start_s,
                faults=(
                    len(self._fault_plan)
                    if self._fault_plan is not None else 0
                ),
                resumed=self._restored is not None,
                checkpoint=self._writer is not None,
            )
            if self._writer is not None and self._restored is None:
                # Initial snapshot: a crash *before* the first periodic
                # snapshot must still be resumable (cut at session
                # start, zero results).
                self._writer.write_snapshot(
                    t=self._start_s,
                    results_count=0,
                    state=pipeline.checkpoint_state(),
                    records_dispatched=0,
                )
            self._chunks = stream.iter_chunks(duration_s)
        except BaseException:
            self.abort()
            raise

    def _warm_up(self, stream: SimulatorRecordStream) -> float:
        """Stream until every reader covers the reference grid.

        Mirrors :meth:`TestbedSimulator.warm_up`, but routed through the
        pipeline's own ingestion queue (the simulator's direct
        middleware path is disconnected while the stream taps the
        record sink).
        """
        simulator = stream.simulator
        pipeline = self.pipeline
        deadline = simulator.now + self.warmup_max_s
        while simulator.now < deadline:
            records = stream.advance(min(2.0, deadline - simulator.now))
            pipeline.ingest.submit(records)
            pipeline.ingest.deliver_pending()
            coverage = pipeline.middleware.coverage(simulator.now)
            if all(c >= 1.0 for c in coverage.values()):
                return simulator.now
        raise SimulationError(
            f"{self._name}: reference coverage incomplete after "
            f"{self.warmup_max_s}s of warm-up: "
            f"{pipeline.middleware.coverage(simulator.now)}"
        )

    def _flip_to_live(self, now_s: float) -> None:
        pipeline = self.pipeline
        pipeline.end_replay()
        pipeline.verify_replay(self._restored.snapshot["state"])
        snap_dispatched = self._restored.snapshot.get("records_dispatched")
        if (
            snap_dispatched is not None
            and self._records_dispatched != int(snap_dispatched)
        ):
            raise CheckpointError(
                f"{self._name} replay diverged on dispatched records: "
                f"reconstructed {self._records_dispatched}, "
                f"checkpoint {snap_dispatched}"
            )
        log_event(
            self._logger, "zone_resume_live",
            zone=self.zone, t=now_s,
            records_replayed=self._records_dispatched,
            results_restored=self._wal_index,
        )

    def _submit_scheduled(self, now_s: float) -> None:
        """Submit every open-loop schedule event due at this tick.

        Arrival times are relative to the session start (post warm-up).
        The cursor only moves forward — arrivals are submitted exactly
        once, in schedule order, regardless of how the service is
        keeping up (that is the open-loop contract). Events for tags
        this session does not currently query are skipped with the
        cursor still advancing, and admission control applies per
        arrival exactly as it does to interval-driven queries.
        """
        schedule = self._query_schedule
        t_rel = now_s - self._start_s + 1e-9
        while self._sched_i < len(schedule) and schedule[self._sched_i][0] <= t_rel:
            _, label = schedule[self._sched_i]
            self._sched_i += 1
            tag = _tag_id(label)
            if tag not in self._active:
                continue
            if self._admission is not None and not self._admission.admit(now_s):
                continue  # shed-newest: the arrival is consumed, not queued
            self.pipeline.submit_request(tag, now_s)

    def step(self) -> list[ServiceResult] | None:
        """Process the next stream chunk; ``None`` when the stream ends.

        One call is one tick: deliver the chunk's records, submit due
        queries for the *active* tags, execute due batches,
        write-ahead-log the results and capture/flush the consistency
        cut. Records are delivered with their own tick, so a batch
        executing at service time ``t`` never observes a reading stamped
        after ``t``. On a resumed session ticks up to the restored cut
        replay with estimation skipped, and the first tick past it flips
        to live after verifying the reconstructed state. ``crash_point``
        fires after a live tick's results are logged but before any
        further snapshot, simulating a hard kill mid-interval.
        """
        if self._chunks is None:
            raise SimulationError(f"{self._name} is not started")
        if self._interrupted:
            return None
        try:
            now_s, records = next(self._chunks)
        except StopIteration:
            return None
        pipeline = self.pipeline
        writer = self._writer
        with current_tracer().span(
            "zone.tick",
            zone=self.zone,
            tick_s=float(now_s),
            replay=bool(pipeline.replaying),
        ) as tsp:
            if self._replay_until is not None and now_s > self._replay_until:
                self._flip_to_live(now_s)
                self._replay_until = None
            pipeline.ingest.submit(records)
            self._records_dispatched += len(records)
            if self._query_schedule is not None:
                self._submit_scheduled(now_s)
            else:
                for tag in sorted(self._active):
                    if now_s >= self._next_query[tag]:
                        self._next_query[tag] = (
                            now_s + self.config.query_interval_s
                        )
                        if (
                            self._admission is not None
                            and not self._admission.admit(now_s)
                        ):
                            continue  # shed-newest: slot advances
                        pipeline.submit_request(tag, now_s)
            served = pipeline.process_due(now_s)
            tsp.update(n_records=len(records), n_served=len(served))
        if writer is not None and not pipeline.replaying:
            # Write-ahead: results hit the log *before* any observer — a
            # consumer can never have seen a result the checkpoint does
            # not know about.
            for result in served:
                writer.append_result(self._wal_index, _result_to_doc(result))
                self._wal_index += 1
            # The consistency cut at this tick, captured eagerly so a
            # later interrupt can seal the WAL at a tick boundary.
            self._last_cut = {
                "t": now_s,
                "results_count": self._wal_index,
                "state": pipeline.checkpoint_state(),
                "records_dispatched": self._records_dispatched,
            }
            interval = self.config.runtime.checkpoint_interval_s
            if self._next_snapshot is None:
                self._next_snapshot = now_s + interval
            if now_s >= self._next_snapshot:
                writer.write_snapshot(**self._last_cut)
                self._next_snapshot = now_s + interval
        if (
            self._crash_point is not None
            and not pipeline.replaying
            and self._crash_point.due(now_s)
        ):
            self._crash_point.fire(now_s)
        return served

    def interrupt(self) -> None:
        """Graceful shutdown: seal the WAL at the last complete tick.

        The session can then be resumed as if it had crashed exactly at
        that boundary; :meth:`finish` still drains for the report.
        """
        if self._interrupted:
            return
        self._interrupted = True
        if self._writer is not None and self._last_cut is not None:
            self._writer.write_snapshot(**self._last_cut)
        log_event(
            self._logger, "zone_session_interrupted",
            zone=self.zone, t=self.simulator.now,
            results=len(self.pipeline.results),
        )

    def abort(self) -> None:
        """Hard teardown (simulated crash): close the WAL as-is.

        No drain, no final snapshot: whatever the WAL holds is what a
        real crash would have left behind.
        """
        if self._writer is not None:
            self._writer.close()
        if self._stream is not None:
            self._stream.close()
        self._chunks = None
        self._finished = True

    def finish(self) -> SessionReport:
        """Drain, seal the checkpoint and assemble the session report."""
        if self._stream is None or self._finished:
            raise SimulationError(f"{self._name} is not running")
        pipeline = self.pipeline
        writer = self._writer
        restored = self._restored
        try:
            if pipeline.replaying:
                # Cut at (or past) the session end: the whole stream
                # replayed; flip to live so the drain below estimates.
                pipeline.end_replay()
                if not self._interrupted:
                    pipeline.verify_replay(restored.snapshot["state"])
            end_s = self.simulator.now
            with current_tracer().span("service.drain") as dsp:
                drained = pipeline.drain(end_s)
                dsp.set("n_drained", len(drained))
            if writer is not None:
                if not self._interrupted:
                    # Normal completion: commit the drained tail and seal
                    # with a final snapshot. (On an interrupt the last
                    # complete tick's cut is already sealed; the drain
                    # above is report-only — its results are served at
                    # the interrupt time, not their natural flush times,
                    # so committing them would poison a later resume.)
                    logged = writer.results_logged + (
                        len(restored.results) if restored is not None else 0
                    )
                    all_results = pipeline.results
                    for i in range(logged, len(all_results)):
                        writer.append_result(i, _result_to_doc(all_results[i]))
                    writer.write_snapshot(
                        t=end_s,
                        results_count=len(all_results),
                        state=pipeline.checkpoint_state(),
                    )
                writer.write_marker(
                    "end", t=end_s, interrupted=self._interrupted
                )
        finally:
            if writer is not None:
                writer.close()
            self._stream.close()
            self._finished = True
            self._chunks = None

        wall_s = self._perf_clock() - self._wall_start
        summary = dict(pipeline.metrics_summary())
        summary["session_duration_s"] = end_s - self._start_s
        summary["session_end_s"] = float(end_s)
        summary["records_streamed"] = float(self._stream.records_streamed)
        summary["wall_time_s"] = wall_s
        summary["localizations_per_s"] = (
            summary["results"] / wall_s if wall_s > 0 else float("inf")
        )
        if self._injector is not None:
            for key, value in self._injector.counters().items():
                summary[f"fault_records_{key}"] = float(value)
        if self._interrupted:
            summary["interrupted"] = 1.0
        if self._resume:
            summary["resumed"] = 1.0
            summary["resume_results_restored"] = float(len(restored.results))
        if writer is not None:
            summary["checkpoint_results_logged"] = float(writer.results_logged)
            summary["checkpoint_snapshots"] = float(writer.snapshots_written)
        truth = self.deployment.tracking_truth
        errors = tuple(
            estimation_error(r.position, truth[r.tag_id])
            for r in pipeline.results
            if r.tag_id in truth
        )
        log_event(
            self._logger, "zone_session_end",
            zone=self.zone, results=len(pipeline.results),
            wall_s=wall_s, interrupted=self._interrupted,
        )
        return SessionReport(
            results=pipeline.results,
            summary=summary,
            metrics=pipeline.metrics,
            errors_m=errors,
            calibration_events=pipeline.calibration_events(),
        )

    def run(
        self,
        duration_s: float,
        *,
        on_result: Callable[[ServiceResult], Any] | None = None,
        tracer: Tracer | None = None,
    ) -> SessionReport:
        """Start, step to exhaustion and finish.

        ``on_result`` sees every result a step serves, after it is in
        the WAL, then every result the final drain serves. A
        :class:`KeyboardInterrupt` mid-stream is a graceful
        :meth:`interrupt`; any other exception (a simulated crash
        included) propagates after :meth:`abort`, leaving the WAL
        exactly as the failure found it.
        """
        if tracer is not None and tracer.clock is None:
            # Deterministic span timestamps: simulation time, not wall.
            tracer.clock = lambda: self.simulator.now
        with use_tracer(tracer) if tracer is not None else nullcontext():
            try:
                self.start(duration_s)
                while True:
                    try:
                        served = self.step()
                        if served is None:
                            break
                        if on_result is not None:
                            for result in served:
                                on_result(result)
                    except KeyboardInterrupt:
                        self.interrupt()
                        break
            except BaseException:
                self.abort()
                raise
            n_stepped = len(self.pipeline.results)
            report = self.finish()
        if on_result is not None:
            for result in report.results[n_stepped:]:
                on_result(result)
        return report


class LocalizationService:
    """Runs the session loop over a seeded scenario.

    Parameters
    ----------
    config:
        Service knobs; defaults are sized for the paper's testbed.
    perf_clock:
        Monotonic clock used for latency measurement (injectable so a
        test can make latency deterministic).
    warmup_max_s:
        Cap on the reference-coverage warm-up phase before queries start.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        perf_clock: Callable[[], float] = time.perf_counter,
        warmup_max_s: float = 120.0,
    ):
        self.config = config or ServiceConfig()
        self._perf_clock = perf_clock
        self.warmup_max_s = float(warmup_max_s)

    def build_deployment(self, scenario: TestbedScenario) -> Deployment:
        """The event-driven testbed a session streams from."""
        tracking = {
            _tag_id(label): pos for label, pos in scenario.tracking_tags.items()
        }
        return build_paper_deployment(
            scenario.environment,
            grid=scenario.grid,
            tracking_tags=tracking,
            seed=scenario.base_seed,
        )

    def run(
        self,
        scenario: TestbedScenario | str,
        duration_s: float,
        *,
        on_result: Callable[[ServiceResult], Any] | None = None,
        fault_plan: "FaultPlan | None" = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume: bool = False,
        crash_point: "CrashPoint | None" = None,
        tracer: Tracer | None = None,
    ) -> SessionReport:
        """Stream ``scenario`` for ``duration_s`` simulated seconds.

        ``scenario`` may be a full :class:`TestbedScenario` or an
        environment preset name (``"Env1"``/``"Env2"``/``"Env3"``).
        ``on_result`` fires synchronously per served result — the CLI's
        live table hook. ``fault_plan`` interposes a seeded
        :class:`~repro.faults.FaultInjector` on the simulator's record
        path *after* warm-up completes (warm-up cannot be starved by an
        injected outage; fault times are absolute simulation seconds);
        an empty plan is bit-identical to no plan at all. The injector's
        counters and fault-event trail are folded into the report
        summary.

        Crash safety (``docs/RUNTIME.md``):

        ``checkpoint_path``
            Attach an append-only JSONL write-ahead checkpoint: every
            served result is logged as served, and a consistency
            snapshot (pipeline state at simulated time *t*) is written
            every ``config.runtime.checkpoint_interval_s`` simulated
            seconds, after a graceful interrupt, and at session end.
        ``resume``
            Load the checkpoint's last committed cut, restore the served
            results and serving state from it, *replay* the seeded
            stream up to the cut with estimation skipped (reconstructing
            queue, middleware, breaker and batcher state bit-exactly —
            and verifying the reconstruction against the snapshot), then
            continue live. The resumed session's
            :meth:`SessionReport.witness_document` is byte-identical to
            an uninterrupted run's.
        ``crash_point``
            Test/benchmark hook: a :class:`~repro.faults.CrashPoint`
            that raises :class:`~repro.faults.SimulatedCrash` at the
            first live tick at or past its time — *without* draining or
            writing a final snapshot, exactly like ``kill -9``.

        A :class:`KeyboardInterrupt` (Ctrl-C / SIGTERM via the CLI) is a
        *graceful* shutdown: the WAL is sealed at the last complete
        tick, the batcher is drained, an ``end`` marker is written, and
        the report carries ``summary["interrupted"] = 1.0``.

        ``tracer``
            Optional :class:`repro.obs.Tracer` installed as the ambient
            tracer for the whole session. Its deterministic clock is
            wired to the simulator (spans are stamped with simulation
            time), so the *logical* trace — span tree, attributes, sim
            timestamps — is a pure function of the seeded scenario;
            ``repro trace record`` relies on exactly that. ``None`` (the
            default) leaves the ambient tracer alone: normally the
            no-op, so instrumentation costs nothing.
        """
        if isinstance(scenario, str):
            scenario = paper_scenario(scenario, n_trials=1)
        environment = getattr(scenario, "environment", None)
        session = ServiceSession(
            self.build_deployment(scenario),
            self.config,
            {
                "scenario": getattr(scenario, "name", None),
                "environment": getattr(environment, "name", None),
                "seed": getattr(scenario, "base_seed", None),
                "zone": None,
            },
            tags=sorted(_tag_id(label) for label in scenario.tracking_tags),
            fault_plan=fault_plan,
            checkpoint_path=checkpoint_path,
            resume=resume,
            crash_point=crash_point,
            perf_clock=self._perf_clock,
            warmup_max_s=self.warmup_max_s,
        )
        return session.run(duration_s, on_result=on_result, tracer=tracer)
