"""Tests for repro.runtime.checkpoint: the JSONL write-ahead log."""

from __future__ import annotations

import json
import types
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CheckpointError
from repro.runtime import CheckpointWriter, load_checkpoint
from repro.runtime.checkpoint import (
    FORMAT_VERSION,
    _dump_line,
    jsonable,
    validate_header,
)
from repro.service.pipeline import ServiceResult
from repro.service.session import _result_to_doc, result_from_doc


def _write_minimal(path, n_results=3, t=10.0):
    with CheckpointWriter(path) as w:
        w.write_header(scenario="Env1", seed=0)
        for i in range(n_results):
            w.append_result(i, {"tag_id": f"tag-{i}", "value": float(i)})
        w.write_snapshot(t=t, results_count=n_results, state={"x": 1})
    return path


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        assert jsonable(np.float64(1.5)) == 1.5
        assert jsonable(np.int32(3)) == 3
        assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nested_structures(self):
        doc = {"a": (1, np.float64(2.0)), "b": {"c": np.array([3])}}
        assert jsonable(doc) == {"a": [1, 2.0], "b": {"c": [3]}}

    def test_sets_become_sorted_lists(self):
        assert jsonable({3, 1, 2}) == [1, 2, 3]

    def test_exotic_values_fall_back_to_str(self):
        class Exotic:
            def __repr__(self):
                return "<exotic>"

        assert jsonable(Exotic()) == "<exotic>"

    def test_json_float_roundtrip_is_exact(self):
        value = 0.1 + 0.2  # classic non-representable sum
        assert json.loads(json.dumps(jsonable(value))) == value


def _reference_jsonable(value: Any) -> Any:
    """The recursive conversion WAL lines were first encoded with."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_reference_jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_reference_jsonable(v) for v in items]
    return str(value)


def _reference_line(doc: Any) -> str:
    return json.dumps(
        _reference_jsonable(doc), sort_keys=True, separators=(",", ":")
    )


class _Exotic:
    def __str__(self) -> str:
        return "<exotic>"


_wal_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.floats(allow_nan=True).map(np.float64),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(-(2**40), 2**40).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(allow_nan=True), max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), min_size=2, max_size=2).map(
        lambda row: np.array([row, row])
    ),
    st.sets(st.integers(-50, 50), max_size=4),
    st.frozensets(st.text(max_size=3), max_size=3),
    st.just(_Exotic()),
)
_wal_keys = st.one_of(
    st.text(max_size=3),
    st.integers(-12, 12),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)
_wal_values = st.recursive(
    _wal_leaves,
    lambda children: st.one_of(
        st.dictionaries(_wal_keys, children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.integers(0, 20), children, max_size=3).map(
            types.MappingProxyType
        ),
    ),
    max_leaves=20,
)


class TestWalEncoding:
    """WAL lines are byte-identical to ``json.dumps(jsonable(doc))``."""

    @settings(max_examples=120, deadline=None)
    @given(doc=st.dictionaries(st.text(max_size=4), _wal_values, max_size=6))
    def test_str_keyed_documents_match_reference(self, doc):
        assert _dump_line(doc) == _reference_line(doc)

    @settings(max_examples=80, deadline=None)
    @given(doc=st.dictionaries(_wal_keys, _wal_values, max_size=6))
    def test_any_keyed_documents_match_reference(self, doc):
        assert _dump_line(doc) == _reference_line(doc)

    def test_non_str_keys_sort_as_strings(self):
        doc = {"m": {2: "a", 10: "b", True: 1, None: 0}, 3: (1, {4: 5})}
        line = _dump_line(doc)
        assert line == _reference_line(doc)
        assert line == (
            '{"3":[1,{"4":5}],"m":{"10":"b","2":"a","None":0,"True":1}}'
        )

    def test_real_result_document(self, tmp_path):
        doc = {
            "type": "result",
            "i": 0,
            "position": [0.9576968338737758, 2.684830774528928],
            "diagnostics": {
                "map_areas": np.array([728, 709, 257, 359]),
                "selected_fraction": np.float64(0.10301768990634755),
                "n_selected": np.int64(99),
                "fallback": None,
            },
        }
        path = tmp_path / "wal.ckpt"
        with CheckpointWriter(path) as w:
            w._write(doc)
        assert path.read_text() == _reference_line(doc) + "\n"

    def test_service_result_with_raw_diagnostics_roundtrips(self, tmp_path):
        # Result documents carry diagnostics as the estimator left them;
        # the writer alone makes them plain JSON.
        result = ServiceResult(
            tag_id="tag-a",
            position=(1.25, 2.5),
            estimator="vire",
            degraded=False,
            reason=None,
            requested_at_s=3.0,
            completed_at_s=3.5,
            processing_latency_s=0.001,
            diagnostics={
                "map_areas": np.array([[1, 2], [3, 4]]),
                "readers": {"r2", "r0", "r1"},
                "n_selected": np.int64(7),
                "fraction": np.float32(0.5),
            },
        )
        path = tmp_path / "wal.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header(scenario="Env1", seed=0)
            w.append_result(0, _result_to_doc(result))
            w.write_snapshot(t=4.0, results_count=1, state={})
        (doc,) = load_checkpoint(path).results
        assert doc["diagnostics"] == {
            "map_areas": [[1, 2], [3, 4]],
            "readers": ["r0", "r1", "r2"],
            "n_selected": 7,
            "fraction": 0.5,
        }
        restored = result_from_doc(doc)
        assert restored.position == result.position
        assert restored.requested_at_s == result.requested_at_s


class TestWriterAndLoader:
    def test_roundtrip(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        state = load_checkpoint(path)
        assert state.header["scenario"] == "Env1"
        assert state.header["version"] == FORMAT_VERSION
        assert state.t_cut == 10.0
        assert len(state.results) == 3
        assert state.results[1]["tag_id"] == "tag-1"
        assert state.snapshot["state"] == {"x": 1}

    def test_every_line_is_valid_json(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        for line in path.read_text().splitlines():
            json.loads(line)  # must not raise

    def test_truncated_tail_tolerated(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        with open(path, "a") as fh:
            fh.write('{"type": "result", "i": 99, "tag')  # mid-write crash
        state = load_checkpoint(path)
        assert len(state.results) == 3  # the torn line is ignored

    def test_trailing_results_past_snapshot_discarded(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        with CheckpointWriter(path, append=True) as w:
            w.append_result(3, {"tag_id": "tag-3"})  # never committed
        state = load_checkpoint(path)
        assert len(state.results) == 3

    def test_duplicate_result_index_keeps_latest(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(0, {"value": "old"})
            w.append_result(0, {"value": "new"})
            w.write_snapshot(t=1.0, results_count=1)
        assert load_checkpoint(path).results[0]["value"] == "new"

    def test_last_snapshot_wins(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(0, {"v": 1})
            w.write_snapshot(t=1.0, results_count=1)
            w.append_result(1, {"v": 2})
            w.write_snapshot(t=2.0, results_count=2)
        state = load_checkpoint(path)
        assert state.t_cut == 2.0
        assert len(state.results) == 2

    def test_markers_are_skipped_by_loader(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        with CheckpointWriter(path, append=True) as w:
            w.write_marker("resume", t_cut=10.0)
            w.write_marker("end", t=12.0)
        assert load_checkpoint(path).t_cut == 10.0

    def test_marker_kind_validated(self, tmp_path):
        with CheckpointWriter(tmp_path / "c.ckpt") as w:
            with pytest.raises(CheckpointError):
                w.write_marker("snapshot")

    def test_closed_writer_refuses_writes(self, tmp_path):
        w = CheckpointWriter(tmp_path / "c.ckpt")
        w.close()
        assert w.closed
        with pytest.raises(CheckpointError):
            w.write_header()
        w.close()  # idempotent

    def test_counters(self, tmp_path):
        with CheckpointWriter(tmp_path / "c.ckpt") as w:
            w.write_header()
            w.append_result(0, {})
            w.append_result(1, {})
            w.write_snapshot(t=1.0, results_count=2)
            assert w.results_logged == 2
            assert w.snapshots_written == 1


class TestLoaderErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_no_header(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_text('{"type": "snapshot", "t": 1.0, "results_count": 0}\n')
        with pytest.raises(CheckpointError, match="no header"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_text(
            '{"type": "header", "version": 999}\n'
            '{"type": "snapshot", "t": 1.0, "results_count": 0}\n'
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_no_snapshot(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(0, {})
        with pytest.raises(CheckpointError, match="no complete snapshot"):
            load_checkpoint(path)

    def test_snapshot_commits_unlogged_results(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.write_snapshot(t=1.0, results_count=5)
        with pytest.raises(CheckpointError, match="never logged"):
            load_checkpoint(path)


class TestFsync:
    def test_fsync_snapshot_smoke(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path, fsync=True) as w:
            w.write_header()
            w.write_snapshot(t=1.0, results_count=0)
        assert load_checkpoint(path).t_cut == 1.0


class TestValidateHeader:
    def _restored(self, tmp_path, **header):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header(**header)
            w.write_snapshot(t=1.0, results_count=0, state={})
        return load_checkpoint(path)

    def test_matching_identity_passes(self, tmp_path):
        state = self._restored(
            tmp_path, scenario="Env1", seed=3, zone=None
        )
        validate_header(
            state, {"scenario": "Env1", "seed": 3, "zone": None}
        )

    def test_mismatch_names_the_offending_key(self, tmp_path):
        state = self._restored(tmp_path, scenario="Env1", seed=3)
        with pytest.raises(CheckpointError, match="'seed'"):
            validate_header(state, {"scenario": "Env1", "seed": 4})

    def test_zone_identity_is_enforced(self, tmp_path):
        # Zone A's file presented to zone B: the worlds are different
        # seeded deployments, so the resume must refuse loudly.
        state = self._restored(tmp_path, zone="z0", seed=3)
        with pytest.raises(
            CheckpointError, match="mismatch on 'zone'"
        ) as err:
            validate_header(state, {"zone": "z1", "seed": 3})
        assert "'z0'" in str(err.value) and "'z1'" in str(err.value)

    def test_unzoned_session_rejects_a_zoned_checkpoint(self, tmp_path):
        state = self._restored(tmp_path, zone="z0")
        with pytest.raises(CheckpointError, match="'zone'"):
            validate_header(state, {"zone": None})

    def test_comparison_normalizes_json_types(self, tmp_path):
        # Tuples round-trip through JSON as lists; the check must treat
        # them as equal rather than refusing its own header.
        state = self._restored(tmp_path, origin=[4.5, 0.0], grid=[4, 4])
        validate_header(state, {"origin": (4.5, 0.0), "grid": (4, 4)})
