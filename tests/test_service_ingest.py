"""Tests for ingestion: bounded queue, drop-oldest, pump, streams."""

from __future__ import annotations

import pytest

from repro import MiddlewareServer, build_paper_deployment
from repro.exceptions import ConfigurationError, SimulationError
from repro.hardware.readers import ReadingRecord
from repro.hardware.streams import SimulatorRecordStream
from repro.service import BoundedRecordQueue, IngestionLoop, MetricsRegistry

from .conftest import make_clean_environment


def record(i: int, reader: str = "r0", tag: str = "ref-0") -> ReadingRecord:
    return ReadingRecord(reader_id=reader, tag_id=tag, time_s=float(i),
                         rssi_dbm=-50.0 - i)


class TestBoundedRecordQueue:
    def test_fifo_order(self):
        q = BoundedRecordQueue(capacity=10)
        for i in range(3):
            q.offer(record(i))
        assert [r.time_s for r in q.drain()] == [0.0, 1.0, 2.0]

    def test_drop_oldest_on_overflow(self):
        q = BoundedRecordQueue(capacity=2)
        assert q.offer(record(0)) is True
        assert q.offer(record(1)) is True
        assert q.offer(record(2)) is False  # overflow: record 0 shed
        assert q.dropped == 1
        assert [r.time_s for r in q.drain()] == [1.0, 2.0]

    def test_offer_many_counts_chunk_drops(self):
        q = BoundedRecordQueue(capacity=3)
        drops = q.offer_many(record(i) for i in range(5))
        assert drops == 2
        assert [r.time_s for r in q.drain()] == [2.0, 3.0, 4.0]

    def test_drain_max_items(self):
        q = BoundedRecordQueue(capacity=10)
        q.offer_many(record(i) for i in range(5))
        assert len(q.drain(max_items=2)) == 2
        assert len(q) == 3
        assert q.delivered == 2

    def test_high_watermark(self):
        q = BoundedRecordQueue(capacity=10)
        q.offer_many(record(i) for i in range(4))
        q.drain()
        q.offer(record(9))
        assert q.high_watermark == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedRecordQueue(capacity=0)
        with pytest.raises(ConfigurationError):
            BoundedRecordQueue().drain(max_items=-1)


@pytest.fixture
def middleware() -> MiddlewareServer:
    return MiddlewareServer(
        reader_ids=["r0"], reference_tags={"ref-0": (0.0, 0.0)}
    )


class TestIngestionLoop:
    def test_submit_then_deliver(self, middleware):
        loop = IngestionLoop(BoundedRecordQueue(capacity=8), middleware)
        loop.submit(record(i) for i in range(3))
        assert middleware.records_ingested == 0  # nothing delivered yet
        assert loop.deliver_pending() == 3
        assert middleware.records_ingested == 3

    def test_metrics_wiring(self, middleware):
        metrics = MetricsRegistry()
        loop = IngestionLoop(
            BoundedRecordQueue(capacity=2), middleware, metrics=metrics
        )
        loop.submit(record(i) for i in range(3))
        loop.deliver_pending()
        assert metrics.get("ingest_records_offered_total").value == 3
        assert metrics.get("ingest_records_dropped_total").value == 1
        assert metrics.get("ingest_records_delivered_total").value == 2
        assert metrics.get("ingest_queue_depth").value == 0


@pytest.fixture
def clean_simulator():
    deployment = build_paper_deployment(
        make_clean_environment(),
        tracking_tags={"asset": (1.5, 1.5)},
        seed=3,
    )
    return deployment.simulator


class TestSimulatorRecordStream:
    def test_diverts_records_from_middleware(self, clean_simulator):
        with SimulatorRecordStream(clean_simulator) as stream:
            records = stream.advance(5.0)
            assert records, "expected beacon traffic in 5 s"
            assert clean_simulator.middleware.records_ingested == 0
        # Sink restored after close: traffic reaches middleware again.
        clean_simulator.run_for(5.0)
        assert clean_simulator.middleware.records_ingested > 0

    def test_iter_chunks_covers_duration_exactly(self, clean_simulator):
        with SimulatorRecordStream(clean_simulator, step_s=0.4) as stream:
            start = clean_simulator.now
            chunks = list(stream.iter_chunks(2.0))
        assert clean_simulator.now == pytest.approx(start + 2.0)
        assert chunks[-1][0] == pytest.approx(start + 2.0)
        total = sum(len(records) for _, records in chunks)
        assert total == stream.records_streamed

    def test_records_are_causal(self, clean_simulator):
        with SimulatorRecordStream(clean_simulator, step_s=0.5) as stream:
            for now_s, records in stream.iter_chunks(3.0):
                assert all(r.time_s <= now_s for r in records)

    def test_single_tap_enforced(self, clean_simulator):
        with SimulatorRecordStream(clean_simulator):
            with pytest.raises(SimulationError):
                SimulatorRecordStream(clean_simulator).__enter__()

    def test_closed_stream_rejects_advance(self, clean_simulator):
        stream = SimulatorRecordStream(clean_simulator)
        with pytest.raises(SimulationError):
            stream.advance(1.0)


class TestQueueAccountingProperty:
    """Property-style: conservation law under interleaved offer/drain.

    For any interleaving of offers and drains, the queue must satisfy
    ``offered == delivered + dropped + len(queue)`` at every step, drain
    in FIFO order among survivors, and never exceed its capacity.
    """

    def test_interleaved_offer_drain_conservation(self):
        import random

        rng = random.Random(1234)
        for capacity in (1, 2, 7, 32):
            q = BoundedRecordQueue(capacity=capacity)
            delivered = []
            seq = 0
            for _ in range(400):
                action = rng.random()
                if action < 0.6:
                    n = rng.randint(1, 5)
                    for _ in range(n):
                        q.offer(record(seq))
                        seq += 1
                elif action < 0.9:
                    delivered.extend(q.drain(max_items=rng.randint(1, 8)))
                else:
                    delivered.extend(q.drain())
                # Conservation at every step.
                assert q.offered == seq
                assert q.offered == q.delivered + q.dropped + len(q)
                assert len(q) <= capacity
                assert q.high_watermark <= capacity
            delivered.extend(q.drain())
            assert q.delivered == len(delivered)
            assert q.offered == q.delivered + q.dropped
            # FIFO among survivors: timestamps strictly increasing.
            times = [r.time_s for r in delivered]
            assert times == sorted(times)
            # Drop-oldest: the final record offered is never shed.
            assert delivered and delivered[-1].time_s == float(seq - 1)

    def test_burst_overflow_sheds_exactly_excess(self):
        q = BoundedRecordQueue(capacity=5)
        for i in range(12):
            q.offer(record(i))
        assert q.dropped == 7
        assert [r.time_s for r in q.drain()] == [7.0, 8.0, 9.0, 10.0, 11.0]
        assert q.offered == 12 and q.delivered == 5

class TestShedNewestOverflow:
    """``overflow="shed_newest"``: refuse arrivals, keep the buffer."""

    def test_shed_newest_refuses_and_keeps_buffer(self):
        q = BoundedRecordQueue(capacity=2, overflow="shed_newest")
        assert q.offer(record(0)) is True
        assert q.offer(record(1)) is True
        assert q.offer(record(2)) is False
        assert q.shed == 1 and q.dropped == 0
        # Unlike drop-oldest, the buffered records survive untouched.
        assert [r.time_s for r in q.drain()] == [0.0, 1.0]

    def test_offer_many_counts_shed(self):
        q = BoundedRecordQueue(capacity=3, overflow="shed_newest")
        overflows = q.offer_many(record(i) for i in range(5))
        assert overflows == 2
        assert q.shed == 2 and q.dropped == 0
        assert [r.time_s for r in q.drain()] == [0.0, 1.0, 2.0]

    def test_conservation_includes_shed(self):
        q = BoundedRecordQueue(capacity=2, overflow="shed_newest")
        delivered = []
        for i in range(6):
            q.offer(record(i))
            if i == 3:
                delivered.extend(q.drain())
            assert q.offered == i + 1
            assert q.offered == q.delivered + q.dropped + q.shed + len(q)
        assert q.dropped == 0 and q.shed > 0

    def test_overflow_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedRecordQueue(capacity=2, overflow="newest-first")

    def test_metrics_count_shed_separately(self, middleware):
        metrics = MetricsRegistry()
        loop = IngestionLoop(
            BoundedRecordQueue(capacity=2, overflow="shed_newest"),
            middleware, metrics=metrics,
        )
        loop.submit(record(i) for i in range(4))
        assert metrics.get("ingest_records_shed_total").value == 2
        assert metrics.get("ingest_records_dropped_total").value == 0
        assert metrics.get("ingest_records_offered_total").value == 4

    def test_service_config_plumbs_overflow_policy(self):
        from repro.service.pipeline import ServiceConfig, ServicePipeline

        deployment = build_paper_deployment(
            make_clean_environment(),
            tracking_tags={"asset": (1.5, 1.5)},
            seed=3,
        )
        assert ServiceConfig().queue_overflow == "drop_oldest"
        pipeline = ServicePipeline(
            deployment.grid,
            deployment.simulator.middleware,
            ServiceConfig(queue_overflow="shed_newest"),
        )
        assert pipeline.queue.overflow == "shed_newest"
        with pytest.raises(ConfigurationError):
            ServicePipeline(
                deployment.grid,
                deployment.simulator.middleware,
                ServiceConfig(queue_overflow="newest-first"),
            )
