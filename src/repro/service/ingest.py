"""Ingestion: bounded record queues with backpressure and drop-oldest.

The reader fleet produces a continuous stream of
:class:`~repro.hardware.readers.ReadingRecord`; the service must never
let a traffic burst (dense tag deployments beacon in near-synchronized
bursts) grow memory without bound or stall the estimator workers. The
ingestion stage therefore puts a *bounded* queue between the stream and
the middleware with a **drop-oldest** overflow policy: RSSI records are
perishable — the middleware's temporal smoothing means a fresh record is
strictly more valuable than a stale one — so under overload we shed the
oldest data first and count every drop.

Two layers:

* :class:`BoundedRecordQueue` — the core: ring-buffer
  semantics, overflow accounting, high-watermark tracking.
* :class:`IngestionLoop` — the pump: :meth:`~IngestionLoop.submit`
  offers each stream chunk to the queue, and delivery into the
  middleware happens in explicit :meth:`IngestionLoop.deliver_pending`
  calls, so tests and the session loop control exactly when middleware
  state advances.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from ..exceptions import ConfigurationError
from ..hardware.middleware import MiddlewareServer
from ..hardware.readers import ReadingRecord
from .metrics import MetricsRegistry, get_service_logger, log_event

__all__ = ["OVERFLOW_POLICIES", "BoundedRecordQueue", "IngestionLoop"]


#: Overflow policies of :class:`BoundedRecordQueue`. ``drop_oldest``
#: discards the stalest buffered record to admit the new one (counted in
#: :attr:`~BoundedRecordQueue.dropped`); ``shed_newest`` rejects the
#: *incoming* record instead (counted in
#: :attr:`~BoundedRecordQueue.shed`). Drop-oldest suits perishable RSSI
#: streams; shed-newest is the admission-control stance — once admitted,
#: work is never abandoned.
OVERFLOW_POLICIES = ("drop_oldest", "shed_newest")


class BoundedRecordQueue:
    """FIFO of reading records with a hard capacity and a named overflow policy.

    Parameters
    ----------
    capacity:
        Maximum number of buffered records.
    overflow:
        What to do when a record is offered to a full queue:
        ``"drop_oldest"`` (default) discards the oldest buffered record
        to make room; ``"shed_newest"`` refuses the incoming record.
        See :data:`OVERFLOW_POLICIES`.
    """

    def __init__(self, capacity: int = 4096, *, overflow: str = "drop_oldest"):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if overflow not in OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"unknown overflow policy {overflow!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )
        self.capacity = int(capacity)
        self.overflow = overflow
        self._items: deque[ReadingRecord] = deque()
        self._offered = 0
        self._dropped = 0
        self._shed = 0
        self._delivered = 0
        self._high_watermark = 0

    # -- producer side -------------------------------------------------------

    def offer(self, record: ReadingRecord) -> bool:
        """Enqueue ``record``; returns False when the offer overflowed.

        Under ``drop_oldest`` an overflow still admits ``record`` (the
        oldest buffered one is discarded); under ``shed_newest`` the
        overflow rejects ``record`` itself and the buffer is untouched.
        """
        self._offered += 1
        overflowed = len(self._items) >= self.capacity
        if overflowed:
            if self.overflow == "shed_newest":
                self._shed += 1
                return False
            self._items.popleft()
            self._dropped += 1
        self._items.append(record)
        if len(self._items) > self._high_watermark:
            self._high_watermark = len(self._items)
        return not overflowed

    def offer_many(self, records: Iterable[ReadingRecord]) -> int:
        """Offer a chunk; returns how many offers overflowed."""
        before = self._dropped + self._shed
        for record in records:
            self.offer(record)
        return (self._dropped + self._shed) - before

    # -- consumer side -------------------------------------------------------

    def drain(self, max_items: int | None = None) -> list[ReadingRecord]:
        """Dequeue up to ``max_items`` records (all pending by default)."""
        if max_items is not None and max_items < 0:
            raise ConfigurationError(
                f"max_items must be >= 0, got {max_items}"
            )
        n = len(self._items) if max_items is None else min(max_items, len(self._items))
        out = [self._items.popleft() for _ in range(n)]
        self._delivered += n
        return out

    # -- accounting ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def offered(self) -> int:
        """Total records ever offered."""
        return self._offered

    @property
    def dropped(self) -> int:
        """Buffered records discarded by the drop-oldest overflow policy."""
        return self._dropped

    @property
    def shed(self) -> int:
        """Incoming records refused by the shed-newest overflow policy."""
        return self._shed

    @property
    def delivered(self) -> int:
        """Records drained by the consumer."""
        return self._delivered

    @property
    def high_watermark(self) -> int:
        """Deepest the queue has ever been."""
        return self._high_watermark

    def __repr__(self) -> str:
        return (
            f"BoundedRecordQueue(depth={len(self._items)}/{self.capacity}, "
            f"offered={self._offered}, dropped={self._dropped})"
        )


class IngestionLoop:
    """Pumps a record stream through a bounded queue into the middleware.

    Parameters
    ----------
    queue:
        The bounded buffer between producer and middleware.
    middleware:
        Destination of delivered records.
    metrics:
        Optional registry; the loop maintains
        ``ingest_records_offered/dropped/delivered_total`` counters and
        the ``ingest_queue_depth`` gauge.
    """

    def __init__(
        self,
        queue: BoundedRecordQueue,
        middleware: MiddlewareServer,
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self.queue = queue
        self.middleware = middleware
        self._logger = get_service_logger()
        self._metrics = metrics
        if metrics is not None:
            self._c_offered = metrics.counter(
                "ingest_records_offered_total", "Records offered to the ingest queue"
            )
            self._c_dropped = metrics.counter(
                "ingest_records_dropped_total",
                "Buffered records discarded by the drop-oldest overflow policy",
            )
            self._c_shed = metrics.counter(
                "ingest_records_shed_total",
                "Incoming records refused by the shed-newest overflow policy",
            )
            self._c_delivered = metrics.counter(
                "ingest_records_delivered_total", "Records delivered to middleware"
            )
            self._g_depth = metrics.gauge(
                "ingest_queue_depth", "Current ingest queue depth"
            )

    # -- producer ------------------------------------------------------------

    def submit(self, records: Iterable[ReadingRecord]) -> int:
        """Offer a chunk of records; returns overflow drops/sheds caused."""
        records = list(records)
        dropped_before = self.queue.dropped
        shed_before = self.queue.shed
        overflows = self.queue.offer_many(records)
        if self._metrics is not None:
            self._c_offered.inc(len(records))
            dropped = self.queue.dropped - dropped_before
            shed = self.queue.shed - shed_before
            if dropped:
                self._c_dropped.inc(dropped)
            if shed:
                self._c_shed.inc(shed)
            self._g_depth.set(len(self.queue))
        if overflows:
            log_event(
                self._logger, "ingest_overflow",
                dropped=self.queue.dropped - dropped_before,
                shed=self.queue.shed - shed_before,
                depth=len(self.queue), capacity=self.queue.capacity,
            )
        return overflows

    # -- consumer ------------------------------------------------------------

    def deliver_pending(self, max_items: int | None = None) -> int:
        """Drain queued records into the middleware; returns how many."""
        records = self.queue.drain(max_items)
        for record in records:
            self.middleware.ingest(record)
        if self._metrics is not None:
            self._c_delivered.inc(len(records))
            self._g_depth.set(len(self.queue))
        return len(records)
