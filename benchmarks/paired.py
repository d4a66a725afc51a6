"""Interleaved paired timing for the overhead gates.

An overhead gate compares a base arm with the same workload plus the
feature under test. Timing each arm best-of-N, base first, lets scheduler
drift and warm-up land on one arm only, so a 5% gate can pass or fail on
noise alone. Here every repeat is a *pair*: both arms run back to back,
the order alternates from pair to pair, and the pair's overhead is
``treated / base - 1``. The gate reads the median over pairs; the
interquartile range is published beside it as the noise band.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

#: Pairs per gate. Fewer than ten leave the IQR meaningless; at the
#: ~0.1–0.5 s sessions these gates time, 21 keep each gate under a
#: minute while the median's own spread stays a few percent.
PAIRS = 21


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def paired_overhead(
    base: Callable[[], Any], treated: Callable[[], Any]
) -> dict[str, Any]:
    """Run :data:`PAIRS` alternating (base, treated) pairs; summarize overhead.

    Pair ``i`` runs base first when ``i`` is even, treated first when odd.
    Returns the per-pair walls and overheads, the median overhead with
    its quartiles (``numpy.percentile`` linear, i.e. type 7), and the
    last output of each arm under ``"base_out"`` / ``"treated_out"``.
    """
    base_s: list[float] = []
    treated_s: list[float] = []
    base_out = treated_out = None
    for i in range(PAIRS):
        if i % 2 == 0:
            b, base_out = _timed(base)
            t, treated_out = _timed(treated)
        else:
            t, treated_out = _timed(treated)
            b, base_out = _timed(base)
        base_s.append(b)
        treated_s.append(t)
    overheads = [t / b - 1.0 for b, t in zip(base_s, treated_s)]
    q1, median, q3 = np.percentile(overheads, [25, 50, 75])
    return {
        "pairs": PAIRS,
        "base_s": base_s,
        "treated_s": treated_s,
        "overheads": overheads,
        "overhead_median": float(median),
        "overhead_iqr": [float(q1), float(q3)],
        "base_median_s": float(np.median(base_s)),
        "treated_median_s": float(np.median(treated_s)),
        "base_out": base_out,
        "treated_out": treated_out,
    }


def summary(result: dict[str, Any], ndigits: int = 4) -> dict[str, Any]:
    """The JSON-ready part of a :func:`paired_overhead` result."""
    return {
        "pairs": result["pairs"],
        "order": "alternating, base first on even pairs",
        "base_median_s": round(result["base_median_s"], ndigits),
        "treated_median_s": round(result["treated_median_s"], ndigits),
        "overhead_median": round(result["overhead_median"], ndigits),
        "overhead_iqr": [round(v, ndigits) for v in result["overhead_iqr"]],
        "overheads": [round(v, ndigits) for v in result["overheads"]],
    }
