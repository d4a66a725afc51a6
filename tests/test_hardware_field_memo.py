"""The simulator's per-tag frozen-field memo.

:class:`TestbedSimulator` computes each tag's ``(K,)`` mean-RSSI vector
once per position and draws every reading from it with
:meth:`RFChannel.perturb_rssi`. The memo is always on, so its contract is
checked against a reference simulator that re-derives the field per
reader per beacon through :meth:`RFChannel.sample_rssi` — the way the
simulator worked before the memo existed. The delivered record streams
must be bitwise equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_paper_deployment
from repro.hardware.simulator import TestbedSimulator
from repro.rf import env1
from repro.rf.disturbance import HumanMovementDisturbance
from repro.rf.interference import TagInterferenceModel

TRACKING = {"track-1": (1.3, 1.7), "track-2": (0.4, 2.6)}

#: Candidate positions: reference-lattice points (a tracking tag sharing
#: a reference tag's spot), signed zeros on either axis, and a few
#: interior points. A finite pool makes revisits and two tracking tags
#: at one position common draws.
POSITIONS = (
    (1.0, 1.0),
    (0.0, 2.0),
    (-0.0, 2.0),
    (1.5, 0.0),
    (1.5, -0.0),
    (1.3, 1.7),
    (0.4, 2.6),
    (2.25, 0.75),
)


class ReferenceSimulator(TestbedSimulator):
    """Re-derives the frozen field for every reader on every beacon."""

    def _emit_beacon(self, tag) -> None:
        now = self.queue.clock.now
        pos = np.asarray(tag.position)[np.newaxis, :]
        extra_base = self._interference_offsets.get(tag.tag_id, 0.0) - tag.offset_db
        if self.interference is not None:
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
                self.channel.sample_rssi(
                    k, pos, self._sample_rng, n_reads=1, extra_attenuation_db=extra
                )[0, 0]
            )
            record = reader.receive(tag.tag_id, now, rssi)
            if record is not None:
                self._deliver(record, now)


def _deployment(seed: int):
    walker = HumanMovementDisturbance(
        waypoints=((0.2, -0.5), (1.5, 1.5), (2.8, 3.5)),
        speed_mps=0.5,
        body_radius_m=0.8,
        attenuation_db=12.0,
        start_time_s=0.0,
    )
    return build_paper_deployment(
        env1(),
        tracking_tags=TRACKING,
        seed=seed,
        disturbances=[walker],
        interference=TagInterferenceModel(),
    )


def _as_reference(sim: TestbedSimulator) -> ReferenceSimulator:
    """Rebuild ``sim``'s world as a :class:`ReferenceSimulator`."""
    return ReferenceSimulator(
        sim.channel,
        sim.tags,
        sim.readers,
        seed=sim.seed,
        disturbances=sim.disturbances,
        interference=sim.interference,
    )


def _record_stream(sim: TestbedSimulator, moves) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    sim.set_record_sink(
        lambda r: out.append(
            (r.reader_id, r.tag_id, r.time_s.hex(), r.rssi_dbm.hex())
        )
    )
    sim.run_for(2.0)
    for tag_id, position, dt in moves:
        sim.tag(tag_id).move_to(position)
        sim.run_for(dt)
    return out


moves_strategy = st.lists(
    st.tuples(
        st.sampled_from(sorted(TRACKING)),
        st.sampled_from(POSITIONS),
        st.sampled_from((0.25, 1.0, 2.5)),
    ),
    min_size=1,
    max_size=6,
)


class TestFieldMemo:
    @settings(max_examples=15, deadline=None)
    @given(moves=moves_strategy, seed=st.integers(0, 3))
    def test_record_stream_matches_per_reader_sampling(self, moves, seed):
        # Two deployments per example: the tags are mutable and each
        # simulator moves its own.
        memo = _deployment(seed).simulator
        reference = _as_reference(_deployment(seed).simulator)
        got = _record_stream(memo, moves)
        want = _record_stream(reference, moves)
        assert got == want
        assert len(memo._mean_field) <= len(memo.tags)

    def test_mean_field_computed_once_per_tag_position(self, monkeypatch):
        sim = _deployment(0).simulator
        calls: list[tuple[bytes, ...]] = []
        original = sim.channel.mean_rssi_matrix

        def spy(positions):
            calls.append(np.asarray(positions, dtype=np.float64).tobytes())
            return original(positions)

        monkeypatch.setattr(sim.channel, "mean_rssi_matrix", spy)

        sim.run_for(10.0)  # every tag beacons several times, unmoved
        assert len(calls) == len(sim.tags)

        # Each move below is followed by enough time for a beacon.
        track = sim.tag("track-1")
        for position in ((2.0, 0.5), (1.3, 1.7), (-0.0, 1.0), (0.0, 1.0)):
            track.move_to(position)
            sim.run_for(3.0)
        assert len(calls) == len(sim.tags) + 4
        assert calls[-4:] == [
            np.array([p], dtype=np.float64).tobytes()
            for p in ((2.0, 0.5), (1.3, 1.7), (-0.0, 1.0), (0.0, 1.0))
        ]

        # Revisiting the current position is free; the memo stays
        # bounded by one entry per tag.
        track.move_to((0.0, 1.0))
        sim.run_for(3.0)
        assert len(calls) == len(sim.tags) + 4
        assert len(sim._mean_field) == len(sim.tags)

    def test_sample_rssi_is_mean_then_perturb(self):
        channel = _deployment(1).simulator.channel
        pts = np.array([[0.5, 0.5], [2.0, 1.25]])
        sampled = channel.sample_rssi(
            2, pts, np.random.default_rng(7), n_reads=3,
            extra_attenuation_db=np.array([1.0, -2.0]),
        )
        perturbed = channel.perturb_rssi(
            channel.mean_rssi(2, pts), np.random.default_rng(7), n_reads=3,
            extra_attenuation_db=np.array([1.0, -2.0]),
        )
        np.testing.assert_array_equal(sampled, perturbed)

    def test_perturb_rejects_zero_reads(self):
        from repro.exceptions import ChannelError

        channel = _deployment(0).simulator.channel
        with pytest.raises(ChannelError):
            channel.perturb_rssi(
                np.zeros(1), np.random.default_rng(0), n_reads=0
            )
