"""The testbed simulator: wires tags, readers, channel and middleware.

Each tag gets a recurring beacon event. On each beacon, every reader
draws one RSSI sample from the channel (each with its own randomness),
optionally degraded by active disturbances (a person walking through) and
by tag-density interference offsets, and forwards detections to the
middleware. The simulation is deterministic for a given seed.

The channel's frozen field depends only on position, so the simulator
keeps each tag's ``(K,)`` mean-RSSI vector keyed on the exact bytes of
the position it was computed at. A beacon from an unmoved tag pays only
the per-reading perturbation; a moved tag replaces its own entry, so the
memo never holds more than one vector per tag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..rf.channel import RFChannel
from ..rf.disturbance import HumanMovementDisturbance
from ..rf.interference import TagInterferenceModel
from ..types import TrackingReading
from ..utils.rng import derive_rng
from .events import EventQueue
from .middleware import MiddlewareServer, SmoothingSpec
from .readers import Reader, ReadingRecord
from .tags import ActiveTag

if TYPE_CHECKING:  # faults layer sits beside hardware; import is type-only
    from ..faults.injector import FaultInjector

__all__ = ["TestbedSimulator"]


class TestbedSimulator:
    """Event-driven simulation of one RFID testbed.

    Parameters
    ----------
    channel:
        The frozen RF world. Its reader ordering must match ``readers``.
    tags:
        All tags (reference + tracking). Reference tags must have
        ``is_reference=True`` and unique ids.
    readers:
        The readers, in the same order as the channel's reader positions.
    smoothing:
        Middleware smoothing config.
    seed:
        Seed for all per-reading randomness (fading draws, beacon jitter).
    disturbances:
        Optional human-movement disturbances active during the run.
    interference:
        Optional tag-density interference model; systematic offsets are
        drawn once at start from the deployment geometry.
    """

    def __init__(
        self,
        channel: RFChannel,
        tags: Sequence[ActiveTag],
        readers: Sequence[Reader],
        *,
        smoothing: SmoothingSpec | None = None,
        tracking_smoothing: SmoothingSpec | None = None,
        seed: int = 0,
        disturbances: Iterable[HumanMovementDisturbance] = (),
        interference: TagInterferenceModel | None = None,
    ):
        if len(readers) != channel.n_readers:
            raise ConfigurationError(
                f"{len(readers)} readers supplied for a channel with "
                f"{channel.n_readers} reader positions"
            )
        for i, (reader, pos) in enumerate(zip(readers, channel.reader_positions)):
            if not np.allclose(reader.position, pos):
                raise ConfigurationError(
                    f"reader {i} position {reader.position} mismatches channel "
                    f"position {tuple(pos)}"
                )
        ids = [t.tag_id for t in tags]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("tag ids must be unique")
        self.channel = channel
        self.tags = list(tags)
        self.readers = list(readers)
        self.disturbances = tuple(disturbances)
        self.interference = interference
        self.seed = int(seed)

        reference = {
            t.tag_id: t.position for t in self.tags if t.is_reference
        }
        if not reference:
            raise ConfigurationError("deployment has no reference tags")
        self.middleware = MiddlewareServer(
            reader_ids=[r.reader_id for r in self.readers],
            reference_tags=reference,
            smoothing=smoothing,
            tracking_smoothing=tracking_smoothing,
        )
        for reader in self.readers:
            # Expose per-reader frame accounting (frames received vs
            # dropped at the detection floor) through the middleware.
            self.middleware.register_frame_source(reader)
        self.queue = EventQueue()
        self._beacon_rng = derive_rng(self.seed, "beacons")
        self._sample_rng = derive_rng(self.seed, "samples")
        self._record_sink: Callable[[ReadingRecord], None] | None = None
        self._fault_injector: "FaultInjector | None" = None
        # tag id -> (position bytes, (K,) frozen-field mean RSSI).
        self._mean_field: dict[str, tuple[bytes, np.ndarray]] = {}

        self._interference_offsets: dict[str, float] = {}
        if self.interference is not None:
            positions = np.array([t.position for t in self.tags])
            offsets = self.interference.systematic_offsets_db(
                positions, derive_rng(self.seed, "interference")
            )
            self._interference_offsets = {
                t.tag_id: float(o) for t, o in zip(self.tags, offsets)
            }

        # Stagger initial beacons uniformly over one interval so the
        # middleware fills evenly instead of in bursts.
        for tag in self.tags:
            first = self._beacon_rng.uniform(0.0, tag.spec.beacon_interval_s)
            self.queue.schedule(first, self._make_beacon_event(tag))

    # -- simulation machinery ---------------------------------------------

    def _make_beacon_event(self, tag: ActiveTag):
        def fire() -> None:
            if not tag.alive:
                return  # battery dead: no beacon, no rescheduling
            self._emit_beacon(tag)
            tag.record_beacon()
            if tag.alive:
                self.queue.schedule_in(
                    tag.next_beacon_delay(self._beacon_rng), fire
                )

        return fire

    def _tag_mean_rssi(self, tag: ActiveTag) -> np.ndarray:
        """The ``(K,)`` frozen-field mean of ``tag`` at its current position."""
        pos = np.asarray(tag.position, dtype=np.float64)
        key = pos.tobytes()  # exact bytes: -0.0 and 0.0 stay distinct
        entry = self._mean_field.get(tag.tag_id)
        if entry is None or entry[0] != key:
            mean = self.channel.mean_rssi_matrix(pos[np.newaxis, :])[:, 0]
            mean.flags.writeable = False  # shared by every later beacon
            entry = (key, mean)
            self._mean_field[tag.tag_id] = entry
        return entry[1]

    def _emit_beacon(self, tag: ActiveTag) -> None:
        now = self.queue.clock.now
        mean = self._tag_mean_rssi(tag)
        # extra_* terms are attenuations; a positive tag offset boosts RSSI.
        extra_base = self._interference_offsets.get(tag.tag_id, 0.0) - tag.offset_db
        if self.interference is not None:
            # Per-reading interference jitter (collisions are per frame).
            positions = np.array([tag.position])
            extra_base += float(
                self.interference.reading_jitter_db(
                    positions, self._sample_rng, n_reads=1
                )[0, 0]
            )
        for k, reader in enumerate(self.readers):
            extra = extra_base
            for disturbance in self.disturbances:
                extra += disturbance.attenuation_at(now, tag.position, reader.position)
            rssi = float(
                self.channel.perturb_rssi(
                    mean[k:k + 1], self._sample_rng, extra_attenuation_db=extra
                )[0, 0]
            )
            record = reader.receive(tag.tag_id, now, rssi)
            if record is not None:
                self._deliver(record, now)

    def _deliver(self, record: ReadingRecord, now: float) -> None:
        """Route one detected record through faults (if any) to delivery."""
        if self._fault_injector is not None:
            for rec in self._fault_injector.process(record, now):
                self._dispatch(rec)
        else:
            self._dispatch(record)

    def _dispatch(self, record: ReadingRecord) -> None:
        if self._record_sink is not None:
            self._record_sink(record)
        else:
            self.middleware.ingest(record)

    # -- public API ---------------------------------------------------------

    def set_record_sink(
        self, sink: Callable[[ReadingRecord], None] | None
    ) -> None:
        """Divert reading records to ``sink`` instead of the middleware.

        While a sink is installed, *every* detected beacon record goes to
        the sink and the built-in :class:`MiddlewareServer` receives
        nothing — the sink owns delivery (this is how the streaming
        service interposes its bounded ingestion queue between readers
        and middleware, so queue overflow genuinely loses data). Pass
        ``None`` to restore direct middleware ingestion.
        """
        self._record_sink = sink

    @property
    def record_sink(self) -> Callable[[ReadingRecord], None] | None:
        """The installed record sink, if any."""
        return self._record_sink

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Interpose a :class:`~repro.faults.injector.FaultInjector`.

        The injector wraps the record path *between* reader detection
        and delivery (middleware or record sink): every detected beacon
        record passes through the injector's fault plan, and only
        survivors are delivered — possibly modified (calibration drift)
        or late (delay faults, released as simulated time advances).
        The RF channel and reader randomness are untouched, so with no
        injector — or an injector over an *empty* plan — downstream
        output is bit-identical to a fault-free run. Pass ``None`` to
        remove.
        """
        self._fault_injector = injector

    @property
    def fault_injector(self) -> "FaultInjector | None":
        """The installed fault injector, if any."""
        return self._fault_injector

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.queue.clock.now

    def run_for(self, duration_s: float) -> int:
        """Advance the simulation by ``duration_s``; returns events fired."""
        if duration_s < 0:
            raise SimulationError(f"duration must be >= 0, got {duration_s}")
        fired = self.queue.run_until(self.now + duration_s)
        if self._fault_injector is not None:
            # Delay faults buffer records past the last beacon of the
            # window; release everything due by the new simulation time.
            for rec in self._fault_injector.release_due(self.now):
                self._dispatch(rec)
        return fired

    def warm_up(self, *, min_coverage: float = 1.0, max_time_s: float = 120.0) -> float:
        """Run until every reader has fresh readings of the reference grid.

        Returns the simulation time reached. Raises
        :class:`SimulationError` if coverage is still insufficient at
        ``max_time_s`` (e.g. a reference tag is out of range of a reader).
        """
        step = 2.0
        deadline = self.now + max_time_s
        while self.now < deadline:
            self.run_for(step)
            coverage = self.middleware.coverage(self.now)
            if all(c >= min_coverage for c in coverage.values()):
                return self.now
        raise SimulationError(
            f"reference coverage below {min_coverage} after {max_time_s}s: "
            f"{self.middleware.coverage(self.now)}"
        )

    def tag(self, tag_id: str) -> ActiveTag:
        """Look up a tag by id."""
        for t in self.tags:
            if t.tag_id == tag_id:
                return t
        raise ConfigurationError(f"no tag with id {tag_id!r}")

    def reading_for(self, tracking_tag_id: str) -> TrackingReading:
        """Middleware snapshot for one tracking tag at the current time."""
        return self.middleware.snapshot(tracking_tag_id, self.now)
