"""Crash-recovery economics: checkpoint overhead and time-to-recover.

Three questions, tied to the PR's acceptance bar (docs/RUNTIME.md):

1. **Overhead** — attaching a JSONL write-ahead checkpoint to a serve
   session must cost <= 5% wall-clock over the bare session: the median
   of interleaved (bare, checkpointed) pairs with alternating order,
   published with its interquartile range (see ``paired.py``).
2. **Recovery** — resuming a session killed halfway must be *bounded*:
   replay (streaming without estimation) plus the remaining live half
   must land within 1.5x of a clean full run. Replay skips the
   estimators, but in this stack streaming itself is the dominant cost,
   so resume is about a rerun's price — what it buys is not speed but
   the already-served answers: no result a consumer witnessed is ever
   recomputed or changed.
3. **Identity** — none of this may change an answer: the bare,
   checkpointed and crash+resumed sessions must produce byte-identical
   determinism witnesses.

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_recovery.py -s

or standalone (also writes BENCH_recovery.json)::

    PYTHONPATH=src python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro import CrashPoint, ServiceConfig, SimulatedCrash
from repro.service import LocalizationService

try:
    from .conftest import emit
    from .paired import paired_overhead, summary
except ImportError:  # standalone: python benchmarks/bench_recovery.py
    from paired import paired_overhead, summary

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

ENV = "Env1"
DURATION_S = 20.0
KILL_AT_S = DURATION_S / 2
RESUME_REPEATS = 3
OVERHEAD_CEILING = 0.05
RECOVERY_RATIO_CEILING = 1.5


def _service() -> LocalizationService:
    return LocalizationService(ServiceConfig(query_interval_s=1.0))


def _witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run_benchmark(workdir: str | None = None) -> dict:
    workdir = workdir or tempfile.mkdtemp(prefix="bench_recovery_")
    ckpt_path = os.path.join(workdir, "session.ckpt")

    # 1) Bare vs checkpointed: interleaved pairs, alternating order.
    def checkpointed():
        if os.path.exists(ckpt_path):
            os.remove(ckpt_path)
        return _service().run(ENV, DURATION_S, checkpoint_path=ckpt_path)

    _service().run(ENV, DURATION_S)  # discarded warm-up
    paired = paired_overhead(
        lambda: _service().run(ENV, DURATION_S), checkpointed
    )
    pairs_doc = summary(paired)
    bare_report, ckpt_report = paired["base_out"], paired["treated_out"]
    bare_s = min(paired["base_s"])
    overhead = paired["overhead_median"]
    ckpt_bytes = os.path.getsize(ckpt_path)

    # 2) Kill the session halfway, then time the resume (each cycle
    # recreates the crash so every resume starts from the same cut).
    crashed_s = resume_s = float("inf")
    resumed_report = None
    for _ in range(RESUME_REPEATS):
        if os.path.exists(ckpt_path):
            os.remove(ckpt_path)
        elapsed, _ = _timed(lambda: _run_until_crash(ckpt_path))
        crashed_s = min(crashed_s, elapsed)
        elapsed, resumed_report = _timed(
            lambda: _service().run(
                ENV, DURATION_S, checkpoint_path=ckpt_path, resume=True
            )
        )
        resume_s = min(resume_s, elapsed)
    recovery_ratio = resume_s / bare_s

    # 3) The witnesses must agree byte-for-byte.
    witnesses = {
        "bare": _witness(bare_report),
        "checkpointed": _witness(ckpt_report),
        "resumed": _witness(resumed_report),
    }
    identical = len(set(witnesses.values())) == 1

    return {
        "env": ENV,
        "duration_s": DURATION_S,
        "kill_at_s": KILL_AT_S,
        "resume_repeats": RESUME_REPEATS,
        "results_per_session": len(bare_report.results),
        "overhead_pairs": pairs_doc,
        "timing_s": {
            "bare_best": round(bare_s, 4),
            "checkpointed_best": round(min(paired["treated_s"]), 4),
            "crashed_half_session_best": round(crashed_s, 4),
            "resume_remaining_half_best": round(resume_s, 4),
        },
        "checkpoint": {
            "bytes": ckpt_bytes,
            "results_logged": int(
                resumed_report.summary["checkpoint_results_logged"]
            ),
            "snapshots": int(resumed_report.summary["checkpoint_snapshots"]),
            "results_restored": int(
                resumed_report.summary["resume_results_restored"]
            ),
        },
        "acceptance": {
            "overhead_ceiling": OVERHEAD_CEILING,
            "overhead": round(overhead, 4),
            "overhead_iqr": pairs_doc["overhead_iqr"],
            "overhead_ok": overhead <= OVERHEAD_CEILING,
            "recovery_ratio_ceiling": RECOVERY_RATIO_CEILING,
            "recovery_ratio": round(recovery_ratio, 4),
            "recovery_bounded": recovery_ratio <= RECOVERY_RATIO_CEILING,
            "witness_identical": identical,
        },
    }


def _run_until_crash(ckpt_path: str):
    try:
        _service().run(
            ENV, DURATION_S,
            checkpoint_path=ckpt_path,
            crash_point=CrashPoint(at_s=KILL_AT_S),
        )
    except SimulatedCrash:
        return None
    raise AssertionError("crash point never fired")


def test_recovery_benchmark(tmp_path):
    report = run_benchmark(str(tmp_path))
    emit("crash recovery", json.dumps(report, indent=2))
    acc = report["acceptance"]
    assert acc["witness_identical"], (
        "checkpointing or resume changed an answer"
    )
    assert acc["overhead_ok"], (
        f"median checkpoint overhead {acc['overhead']:.1%} (IQR "
        f"{acc['overhead_iqr']}) exceeds {OVERHEAD_CEILING:.0%}"
    )
    assert acc["recovery_bounded"], (
        f"time-to-recover ratio {acc['recovery_ratio']} exceeds "
        f"{RECOVERY_RATIO_CEILING}x a clean run: {report['timing_s']}"
    )


if __name__ == "__main__":
    out = run_benchmark()
    emit("crash recovery", json.dumps(out, indent=2))
    ok = all(
        out["acceptance"][key]
        for key in ("overhead_ok", "recovery_bounded", "witness_identical")
    )
    with open("BENCH_recovery.json", "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_recovery.json")
    raise SystemExit(0 if ok else 1)
