"""Worker-count and chunk-size helpers for process-pool fan-out.

Monte-Carlo experiment trials and engine shards are embarrassingly
parallel: each builds its own frozen world from its own seed and shares
nothing. :func:`repro.engine.sharding.map_shards` fans them out over a
process pool; the helpers below size that pool and its chunks.
``n_jobs=1`` (the default) stays serial, which is both the reproducible
path and the fastest one for small workloads where process start-up
dominates.

Guidance applied from the HPC notes: measure before parallelizing — the
per-trial work here is a few milliseconds of vectorized numpy, so the
pool only pays off for large sweeps (Fig. 7's density sweep); hence
opt-in rather than default.
"""

from __future__ import annotations

import os

__all__ = ["resolve_n_jobs", "compute_chunksize"]


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request.

    ``None`` or 1 → serial; 0 or negative → one worker per CPU.
    """
    if n_jobs is None:
        return 1
    if n_jobs == 1:
        return 1
    if n_jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return int(n_jobs)


def compute_chunksize(n_items: int, n_workers: int, *, per_worker: int = 4) -> int:
    """Chunk size for :meth:`ProcessPoolExecutor.map` over ``n_items``.

    ``ProcessPoolExecutor.map`` defaults to ``chunksize=1``, which pays
    one pickle/unpickle round-trip per item; on a 1000-trial density
    sweep the IPC overhead dominates the few-millisecond trials. Aim for
    about ``per_worker`` chunks per worker — enough slack for dynamic
    load balancing across unevenly slow trials, while amortizing IPC
    over ``n_items / (n_workers * per_worker)`` items per message.
    """
    if n_items <= 0 or n_workers <= 0:
        return 1
    return max(1, n_items // (n_workers * per_worker))
