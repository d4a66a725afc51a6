"""The repository benchmark: serving workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-env3 --seed 0 --seconds 30 \\
        --trace 0

For ``--seconds`` it runs the workload again and again, each time as a
fresh single process (``session.py``), and reports the median over those
sessions. ``--trace 0`` reports the end-to-end metrics of untraced
sessions; ``--trace 1`` alternates untraced and traced sessions and
reports the per-layer numbers of the traced ones plus the tracing
overhead. Times are speed-adjusted inside each session (see
``probes.AnswerClock``). Before every session a fixed reference loop is
also timed; its time goes into the raw output as a drift witness, not
into any metric.

Every session passes the correctness gate (:func:`check`) or the run
fails: all sessions agree on the workload's witness digest, answer count
and mean error, pinned ones (``pins.json``) match their pin, and every
session serves at least ``MIN_ANSWERS`` answers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the raw per-session records. Exit code 0 means the gate passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PINS_PATH = os.path.join(HERE, "pins.json")

sys.path.insert(0, HERE)
from probes import weighted_quantile  # noqa: E402
from workloads import MIN_ANSWERS, WORKLOADS  # noqa: E402

#: Sessions per run, whatever ``--seconds`` says.
MIN_SESSIONS = 3
#: Hard cap on one session's wall time.
SESSION_TIMEOUT_S = 150.0
#: Mean localization error above this is a broken estimator, not noise.
MAX_MEAN_ERROR_M = 3.0

#: Facts every session of one workload and seed must agree on.
DETERMINISTIC = (
    "digest", "answers", "offered", "failed", "shed", "degraded",
    "mean_error_m",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "loc_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_p99_ms": "ms",
    "answered_ratio": "ratio",
    "vire_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_sim_p99_s"):
        return "sim_s"  # simulation-clock seconds, not wall
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


def reference_loop_s() -> float:
    """Time a fixed CPU loop (pure Python plus a small matmul)."""
    import numpy as np

    a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    for _ in range(200):
        a = a @ a
        a /= np.abs(a).max()
    return time.perf_counter() - t0


def run_session(workload: str, seed: int, trace: int) -> dict:
    """One fresh-process session; its JSON record (drift witness added)."""
    drift_s = reference_loop_s()
    env = dict(os.environ)
    # Single-process lockstep: keep BLAS from spinning up worker threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--workdir", OUT_DIR,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SESSION_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"session {workload} seed {seed} trace {trace} exited "
            f"{proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["drift_s"] = drift_s
    return record


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def batch_sizes(record: dict) -> list[int]:
    """Answers per batch call, in call order."""
    return [n for _, n in record["answer_calls"]]


def check(records: list[dict], pins: dict) -> list[str]:
    """Correctness gate; returns the problems found (empty = pass)."""
    problems = []
    first = records[0]
    for rec in records[1:]:
        for key in DETERMINISTIC:
            if rec[key] != first[key]:
                problems.append(
                    f"{key} differs between sessions: {first[key]!r} "
                    f"(trace {first['trace']}) vs {rec[key]!r} "
                    f"(trace {rec['trace']})"
                )
        if batch_sizes(rec) != batch_sizes(first):
            problems.append("the sessions' batch calls differ")
    for rec in records:
        if rec["answer_samples"] < MIN_ANSWERS:
            problems.append(
                f"only {rec['answer_samples']} timed answers; the p99 "
                f"needs {MIN_ANSWERS}"
            )
        err = rec["mean_error_m"]
        if not (math.isfinite(err) and 0.0 < err < MAX_MEAN_ERROR_M):
            problems.append(f"mean error {err!r} m is out of range")
    pin = pins.get(first["workload"], {}).get(str(first["seed"]))
    if pin is not None:
        for key, value in pin.items():
            if first[key] != value:
                problems.append(
                    f"{key} {first[key]!r} does not match the pinned "
                    f"{value!r} for seed {first['seed']}"
                )
    return sorted(set(problems))


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Each end-to-end metric over the untraced sessions of one run.

    Times are medians over sessions. For the answer latencies, the
    sessions of a run make the same batch calls in the same order (the
    gate checks it), so each call's duration is first taken as its median
    over the sessions, which drops a pause that hit one session only;
    the quantiles are then over the answers of that median session.
    """
    rec = records[0]
    calls = [
        (median(r["answer_calls"][i][0] for r in records), n)
        for i, (_, n) in enumerate(rec["answer_calls"])
    ]
    return {
        "setup_s": median(r["setup_s"] for r in records),
        "loc_per_s": median(r["answers"] / r["serve_s"] for r in records),
        "answer_p50_ms": weighted_quantile(calls, 0.50),
        "answer_p99_ms": weighted_quantile(calls, 0.99),
        "answered_ratio": 1.0 - (rec["failed"] + rec["shed"]) / rec["offered"],
        "vire_ratio": 1.0 - rec["degraded"] / rec["answers"],
        "peak_rss_mb": median(r["peak_rss_mb"] for r in records),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Median over traced sessions of each layer number, plus overhead."""
    names = traced[0]["layers"]
    out = {n: median(r["layers"][n] for r in traced) for n in names}
    out["trace.overhead_ratio"] = (
        median(r["serve_s"] for r in traced)
        / median(r["serve_s"] for r in untraced) - 1.0
    )
    return out


def fingerprint() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    pins = load_pins()

    deadline = time.perf_counter() + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    while (
        time.perf_counter() < deadline
        or len(untraced) < MIN_SESSIONS
        or (args.trace and len(traced) < MIN_SESSIONS)
    ):
        untraced.append(run_session(args.workload, args.seed, 0))
        if args.trace:
            traced.append(run_session(args.workload, args.seed, 1))

    records = untraced + traced
    problems = check(records, pins)
    metrics = (
        per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    )
    units = (
        {n: per_layer_unit(n) for n in metrics}
        if args.trace else END_TO_END_UNITS
    )
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        # The latency quantiles are over one session's answers, each
        # charged its call's median duration over this many sessions.
        "answer_samples": untraced[0]["answer_samples"],
        "answer_sessions": len(untraced),
        "problems": problems,
        "sessions": records,
    }
    with open(os.path.join(OUT_DIR, "raw.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(raw) + "\n")
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps(raw))
    offered = sum(r["offered"] for r in records)
    failed = sum(r["failed"] + r["shed"] for r in records)
    print(json.dumps({
        "correct": not problems,
        "attempted": offered,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
