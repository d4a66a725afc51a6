"""Supervised execution + crash-safe checkpointing (``repro.runtime``).

The execution substrate under the sweeps and the streaming service,
hardened the way long-lived fingerprint-serving systems are:

* :mod:`~repro.runtime.policy` — :class:`RuntimePolicy`, the one frozen
  dataclass of supervision knobs (deadlines, retries, backoff, serial
  fallback, checkpoint cadence) threaded through
  :class:`~repro.engine.config.EngineConfig` and
  :class:`~repro.service.pipeline.ServiceConfig`. Disabled by default:
  existing behaviour stays bit-identical.
* :mod:`~repro.runtime.supervisor` — :class:`SupervisedPool`, the
  drop-in wrapper around the process-pool path
  (:func:`repro.engine.sharding.map_shards`): per-task deadlines, bounded
  retries with exponential backoff, automatic pool respawn on worker
  death, and a deterministic serial in-process fallback. Crashes degrade
  throughput, never correctness.
* :mod:`~repro.runtime.checkpoint` — append-only JSONL write-ahead
  checkpoints for streaming sessions, with the determinism witness: a
  session killed mid-run and resumed from its checkpoint reports
  byte-identically to the uninterrupted run.

Layering: ``runtime`` sits beside ``utils`` and below ``engine`` and
``service``; it imports nothing above ``utils``.
"""

from .checkpoint import (
    FORMAT_VERSION,
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
)
from .policy import RetryPolicy, RuntimePolicy
from .supervisor import SupervisedPool, run_shard_with_salvage, supervised_map

__all__ = [
    "FORMAT_VERSION",
    "CheckpointState",
    "CheckpointWriter",
    "RetryPolicy",
    "RuntimePolicy",
    "SupervisedPool",
    "load_checkpoint",
    "run_shard_with_salvage",
    "supervised_map",
]
