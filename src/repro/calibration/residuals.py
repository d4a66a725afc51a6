"""NaN-safe robust statistics over reference-tag residual windows.

The self-healing calibration loop (:mod:`repro.calibration.corrector`)
works on *residual matrices*: per-(reader, reference-tag) differences
between the RSSI the middleware currently reports and the clean baseline
captured at the end of warm-up. Reference tags sit at known positions,
so under perfect calibration every residual is zero-mean noise; a
drifting reader shifts a whole *row*, a decaying reference tag shifts a
whole *column*.

Everything here must be NaN-safe by construction: masked partial frames,
quorum-trimmed snapshots and stale middleware series all surface as NaN
cells, and a window observed during a total outage can be entirely NaN
(or entirely empty, for a deployment with zero reference tags). None of
the helpers may emit numpy's all-NaN-slice warnings — they filter finite
values explicitly and return NaN when there is no evidence at all.

All outputs are pure functions of their inputs (no RNG, no wall-clock),
which is what lets the corrector's state replay bit-identically from a
checkpoint.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "nan_median",
    "nan_mad",
    "ResidualWindow",
    "decompose_residuals",
]

#: Consistency constant turning a MAD into a Gaussian-comparable sigma.
MAD_SIGMA = 1.4826


def nan_median(values: np.ndarray | list | tuple) -> float:
    """Median over the finite entries of ``values``.

    Returns ``nan`` (never warns) when no finite entry exists — an
    all-NaN window means "no evidence", and the caller decides what that
    implies (for a reference tag at a known position, silence itself is
    anomalous).
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return float("nan")
    return float(np.median(finite))


def nan_mad(values: np.ndarray | list | tuple) -> float:
    """Median absolute deviation over the finite entries of ``values``.

    The robust scale companion of :func:`nan_median`: outlier rows or
    columns (one drifting reader among four, one dying tag among
    sixteen) barely move it. Returns ``nan`` when there is no finite
    evidence. Multiply by :data:`MAD_SIGMA` for a Gaussian-equivalent
    sigma.
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return float("nan")
    med = np.median(finite)
    return float(np.median(np.abs(finite - med)))


class ResidualWindow:
    """A sim-clock sliding window of residual matrices.

    ``push(now_s, residuals)`` appends one ``(K, n_refs)`` observation
    and drops every entry older than ``window_s`` (strictly: entries
    with ``now_s - t > window_s``). Time is the simulation clock, so the
    window contents — and everything estimated from them — are a pure
    function of the seeded record stream.
    """

    def __init__(self, window_s: float):
        self.window_s = float(window_s)
        self._entries: list[tuple[float, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, now_s: float, residuals: np.ndarray) -> None:
        """Append one observation and expire everything out of window."""
        self._entries.append((float(now_s), np.asarray(residuals, dtype=np.float64)))
        horizon = float(now_s) - self.window_s
        while self._entries and self._entries[0][0] < horizon:
            self._entries.pop(0)

    def stacked(self) -> np.ndarray:
        """The window as one ``(T, K, n_refs)`` array (``T`` may be 0)."""
        if not self._entries:
            return np.empty((0, 0, 0))
        return np.stack([m for _, m in self._entries])

    def clear(self) -> None:
        self._entries.clear()


def _nanmedian(a: np.ndarray, axis: tuple[int, int]) -> np.ndarray:
    """``np.nanmedian(a, axis=axis)`` bit for bit, for a 3-D ``a``.

    For a 2-axis reduction of a 3-D array that merges fewer than 600
    values per slice, numpy sorts through a masked array. This does the
    same steps on plain arrays: merge the reduced axes in numpy's order,
    argsort with NaN filled as ``+inf``, take the two middle finite
    values, sum them with ``ndarray.sum`` (so ``-0.0 + -0.0`` gives
    ``+0.0`` as numpy's does) and halve. All-NaN slices give NaN,
    without a warning. Any other shape, and any infinite input, goes to
    numpy itself.
    """
    (kept,) = {0, 1, 2} - {ax % 3 for ax in axis}
    merged = a.swapaxes(0, kept).reshape(a.shape[kept], -1)
    if (
        merged.size == 0 or merged.shape[1] >= 600 or np.isinf(merged).any()
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmedian(a, axis=axis)
    missing = np.isnan(merged)
    order = np.where(missing, np.inf, merged).argsort(axis=1)
    count = (~missing).sum(axis=1, keepdims=True)
    high = count // 2
    middle_cols = np.concatenate([high - 1 + count % 2, high], axis=1)
    rows = np.arange(merged.shape[0])[:, None]
    out = merged[rows, order[rows, middle_cols]].sum(axis=1)
    np.true_divide(out, 2.0, out=out)
    out[count[:, 0] == 0] = np.nan
    return out


def decompose_residuals(
    stacked: np.ndarray,
    *,
    trusted_columns: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Median-polish a residual window into reader and tag components.

    Parameters
    ----------
    stacked:
        ``(T, K, n_refs)`` residual window (NaN = no evidence).
    trusted_columns:
        Optional boolean mask of length ``n_refs``; only these columns
        feed the per-reader bias estimate (quarantined tags must not
        contaminate the very estimate used to judge them). All columns
        are always scored.

    Returns
    -------
    ``(reader_bias, tag_scores, scale)`` where ``reader_bias`` has shape
    ``(K,)`` (NaN when a reader has no finite evidence), ``tag_scores``
    has shape ``(n_refs,)`` — each tag's median residual *after* the
    per-reader bias is removed — and ``scale`` is the
    :data:`MAD_SIGMA`-normalized MAD of the tag scores (NaN when fewer
    than two tags have evidence).

    The decomposition order encodes the physical failure modes: a
    drifting reader moves a whole row (captured first, robust to a few
    bad tags), a decaying tag moves what is left of its column across
    every reader.
    """
    if stacked.ndim != 3:
        raise ValueError(f"expected (T, K, n_refs) residuals, got shape {stacked.shape}")
    n_ticks, n_readers, n_refs = stacked.shape
    if n_ticks == 0 or n_refs == 0:
        # No evidence at all: NaN biases, NaN scores, NaN scale.
        return (
            np.full(n_readers, np.nan),
            np.full(n_refs, np.nan),
            float("nan"),
        )
    rows = stacked
    if trusted_columns is not None:
        rows = stacked[:, :, trusted_columns]
    # Vectorized nan-medians (this runs every batch tick). All-NaN
    # slices legitimately mean "no evidence": the NaN flows through.
    if rows.shape[2]:
        reader_bias = _nanmedian(rows, axis=(0, 2))
    else:
        reader_bias = np.full(n_readers, np.nan)
    centered_bias = np.where(np.isfinite(reader_bias), reader_bias, 0.0)
    tag_scores = _nanmedian(
        stacked - centered_bias[None, :, None], axis=(0, 1)
    )
    finite_scores = tag_scores[np.isfinite(tag_scores)]
    scale = float("nan")
    if finite_scores.size >= 2:
        scale = MAD_SIGMA * nan_mad(finite_scores)
    return reader_bias, tag_scores, scale
