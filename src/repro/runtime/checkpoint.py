"""Append-only JSONL write-ahead checkpoints for streaming sessions.

The checkpoint file is a sequence of JSON documents, one per line, in
strict append order — the classic write-ahead discipline:

* ``{"type": "header", ...}`` — once per file: format version plus
  enough scenario identity (environment, seed, duration, tag ids) to
  refuse a resume against the wrong world.
* ``{"type": "result", "i": N, ...}`` — one line per served result, in
  completion order, flushed as served. These are the *expensive* bytes:
  every result logged here is an estimate the resumed session never has
  to recompute.
* ``{"type": "snapshot", "t": ..., "results_count": K, ...}`` — a
  consistency cut: "the first K result lines above, plus this pipeline
  state, describe the session exactly at simulated time t". Results are
  durable only once a snapshot commits them; trailing result lines past
  the last snapshot are discarded on load (the resumed session recomputes
  them bit-identically — determinism makes the recompute free of risk).
* ``{"type": "resume", ...}`` / ``{"type": "end", ...}`` — markers for
  observability; loaders skip them.

Robustness: the loader tolerates a truncated or corrupt tail (the crash
may have landed mid-write) by stopping at the first unparsable line, and
resolves duplicate result indices (a pre-crash tail recomputed after a
resume) by keeping the *latest* line — which, by the determinism
contract, is byte-identical to the one it replaces.

This module is deliberately below the service layer: it speaks plain
dicts. :mod:`repro.service.session` owns the conversion between
:class:`~repro.service.pipeline.ServiceResult` and result documents.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, IO, Mapping

import numpy as np

from ..exceptions import CheckpointError
from ..utils.logging import get_structured_logger, log_event

__all__ = [
    "FORMAT_VERSION",
    "CheckpointWriter",
    "CheckpointState",
    "load_checkpoint",
    "validate_header",
    "jsonable",
]

FORMAT_VERSION = 1

_LOGGER_NAME = "repro.runtime"


def jsonable(value: Any) -> Any:
    """Best-effort conversion of ``value`` into plain JSON types.

    NumPy scalars and arrays become Python numbers and lists; mappings
    and sequences recurse; anything else falls back to ``str`` — the
    checkpoint must always be writable, even for exotic diagnostics.
    """
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in items]
    return str(value)


_NESTED = (dict, list, tuple)
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _str_keys_only(value: dict | list | tuple) -> bool:
    """True when every dict reachable through dicts/lists/tuples has str keys."""
    if isinstance(value, dict):
        for k, v in value.items():
            if type(k) is not str:
                return False
            if (type(v) not in _PLAIN and isinstance(v, _NESTED)
                    and not _str_keys_only(v)):
                return False
        return True
    for v in value:
        if (type(v) not in _PLAIN and isinstance(v, _NESTED)
                and not _str_keys_only(v)):
            return False
    return True


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=jsonable
)


def _dump_line(doc: Mapping[str, Any]) -> str:
    """One WAL line, byte for byte ``json.dumps(jsonable(doc), ...)``.

    The C encoder walks dicts, lists and tuples itself and hands every
    other value (NumPy values, non-dict mappings, sets, exotic objects) to
    :func:`jsonable` as its ``default`` hook. It would sort and render
    non-``str`` dict keys differently (``2`` before ``10``, ``True`` as
    ``"true"``), so a document holding any is converted by :func:`jsonable`
    up front; WAL documents normally hold none, and the check costs a
    fraction of the full conversion.
    """
    if not (isinstance(doc, dict) and _str_keys_only(doc)):
        doc = jsonable(doc)
    return _ENCODER.encode(doc)


class CheckpointWriter:
    """Appends WAL lines to a checkpoint file, flushing every write.

    Parameters
    ----------
    path:
        Checkpoint file. ``append=False`` truncates (a fresh session);
        ``append=True`` continues an existing file (a resumed session).
    fsync:
        When True, snapshots additionally ``os.fsync`` — full crash
        durability at the price of one disk sync per snapshot.
    """

    def __init__(self, path: str | os.PathLike, *, append: bool = False,
                 fsync: bool = False):
        self.path = os.fspath(path)
        self._fsync = bool(fsync)
        mode = "a" if append else "w"
        self._fh: IO[str] | None = open(self.path, mode, encoding="utf-8")
        self._logger = get_structured_logger(_LOGGER_NAME)
        self.results_logged = 0
        self.snapshots_written = 0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.flush()
            fh.close()

    @property
    def closed(self) -> bool:
        return self._fh is None

    def _write(self, doc: Mapping[str, Any], *, sync: bool = False) -> None:
        if self._fh is None:
            raise CheckpointError(f"checkpoint writer for {self.path} is closed")
        self._fh.write(_dump_line(doc) + "\n")
        self._fh.flush()
        if sync and self._fsync:
            os.fsync(self._fh.fileno())

    # -- record kinds --------------------------------------------------------

    def write_header(self, **fields: Any) -> None:
        self._write({"type": "header", "version": FORMAT_VERSION, **fields})

    def append_result(self, index: int, doc: Mapping[str, Any]) -> None:
        self._write({"type": "result", "i": int(index), **doc})
        self.results_logged += 1

    def write_snapshot(
        self, *, t: float, results_count: int, **fields: Any
    ) -> None:
        from ..obs import current_tracer  # local: keep module import-light

        with current_tracer().span(
            "runtime.snapshot", t_cut=float(t), results=int(results_count)
        ):
            self._write(
                {
                    "type": "snapshot",
                    "t": float(t),
                    "results_count": int(results_count),
                    **fields,
                },
                sync=True,
            )
        self.snapshots_written += 1
        log_event(
            self._logger, "checkpoint_snapshot",
            path=self.path, t=t, results=results_count,
        )

    def write_marker(self, kind: str, **fields: Any) -> None:
        if kind in ("header", "result", "snapshot"):
            raise CheckpointError(f"{kind!r} is not a marker type")
        self._write({"type": kind, **fields})


@dataclass(frozen=True)
class CheckpointState:
    """A loaded checkpoint: the last committed consistency cut.

    Attributes
    ----------
    header:
        The file's header document (scenario identity, version).
    snapshot:
        The last complete snapshot document.
    results:
        The committed result documents, in completion order — exactly
        ``snapshot["results_count"]`` of them.
    """

    header: Mapping[str, Any]
    snapshot: Mapping[str, Any]
    results: tuple[Mapping[str, Any], ...]

    @property
    def t_cut(self) -> float:
        """Simulated time of the consistency cut."""
        return float(self.snapshot["t"])


def validate_header(
    restored: CheckpointState, expected: Mapping[str, Any]
) -> None:
    """Refuse to resume a checkpoint against a different world.

    Every key of ``expected`` must match the loaded header after
    :func:`jsonable` normalization. The identity keys include the
    session's ``zone`` (``None`` for unzoned sessions), so a zone
    worker's checkpoint can never resume into a different zone — the
    two zones are independent seeded worlds and replay against the
    wrong one would silently produce garbage.
    """
    for key, want in expected.items():
        got = restored.header.get(key)
        if jsonable(got) != jsonable(want):
            raise CheckpointError(
                f"checkpoint header mismatch on {key!r}: checkpoint has "
                f"{got!r}, this session has {want!r} — refusing to "
                f"resume against a different world"
            )


def load_checkpoint(path: str | os.PathLike) -> CheckpointState:
    """Parse a checkpoint file down to its last committed cut.

    Raises :class:`~repro.exceptions.CheckpointError` when the file has
    no header, no complete snapshot, an unsupported version, or a
    snapshot that commits results the file never logged.
    """
    path = os.fspath(path)
    header: Mapping[str, Any] | None = None
    snapshot: Mapping[str, Any] | None = None
    results_by_index: dict[int, Mapping[str, Any]] = {}
    truncated = False
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                truncated = True  # crash landed mid-write; stop here
                break
            kind = doc.get("type")
            if kind == "header":
                if header is None:
                    header = doc
            elif kind == "result":
                results_by_index[int(doc["i"])] = doc
            elif kind == "snapshot":
                snapshot = doc
            # markers ("resume", "end", unknown future kinds): skipped
    if header is None:
        raise CheckpointError(f"checkpoint {path} has no header line")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    if snapshot is None:
        raise CheckpointError(
            f"checkpoint {path} has no complete snapshot to resume from"
        )
    count = int(snapshot["results_count"])
    missing = [i for i in range(count) if i not in results_by_index]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} snapshot commits {count} results but "
            f"indices {missing[:5]}{'...' if len(missing) > 5 else ''} "
            f"were never logged"
        )
    log_event(
        get_structured_logger(_LOGGER_NAME), "checkpoint_loaded",
        path=path, t=snapshot.get("t"), results=count,
        truncated_tail=truncated,
    )
    return CheckpointState(
        header=header,
        snapshot=snapshot,
        results=tuple(results_by_index[i] for i in range(count)),
    )
