"""Tracer overhead: instrumented hot path with tracing off vs on.

The ISSUE-5 acceptance bar for :mod:`repro.obs`: the instrumentation
threaded through ``core.estimator`` and ``engine.batch`` must cost

* **<= 5 %** with the tracer *disabled* (the ambient ``NULL_TRACER`` —
  the production default; every instrumentation point is one
  context-variable read plus a no-op context manager), and
* **<= 15 %** with a real :class:`~repro.obs.Tracer` *enabled*
  (span allocation, attribute coercion, wall-clock reads),

The disabled figure is priced analytically (instrumentation points hit
per workload x the cost of one no-op site, over the workload's wall),
because it is far below timer noise. The enabled figure is the median
``enabled / disabled - 1`` over interleaved pairs with alternating
order, published with its interquartile range (see ``paired.py``). In
every mode the answers must stay **bitwise identical**: tracing may
never perturb a coordinate.

The workload is the serving system's hot unit: scalar ``estimate`` calls
plus one vectorized ``estimate_batch`` pass over the paper testbed.

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_obs_overhead.py -s

or standalone (also writes ``BENCH_obs_overhead.json`` at the repo
root)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro import VIREConfig, VIREEstimator, paper_testbed_grid
from repro.experiments.measurement import TrialSampler
from repro.obs import Tracer, use_tracer
from repro.rf import env3

try:
    from .conftest import emit
    from .paired import paired_overhead, summary
except ImportError:  # standalone: python benchmarks/bench_obs_overhead.py
    from paired import paired_overhead, summary

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


T_TAGS = 48
SEED = 42
DISABLED_BUDGET = 0.05  # +5% max with the null tracer
ENABLED_BUDGET = 0.15   # +15% max with a recording tracer


def _build_workload():
    grid = paper_testbed_grid()
    sampler = TrialSampler(env3(), grid, seed=0)
    rng = np.random.default_rng(SEED)
    xmax, ymax = grid.tag_positions().max(axis=0)
    positions = rng.uniform(0.2, 0.9, (T_TAGS, 2)) * [xmax, ymax]
    readings = [
        sampler.reading_for((float(x), float(y))) for x, y in positions
    ]
    est = VIREEstimator(grid, VIREConfig(target_total_tags=900))
    return est, readings


def _run_once(est, readings):
    scalar = [est.estimate(r) for r in readings]
    batch = est.estimate_batch(readings)
    return scalar, batch


def _fingerprint(scalar, batch) -> list[str]:
    """Bitwise hex rendering of every produced coordinate."""
    out = []
    for result in (*scalar, *batch):
        out.append(float(result.position[0]).hex())
        out.append(float(result.position[1]).hex())
    return out


def _enabled_run(est, readings):
    """One workload pass under a fresh recording tracer."""
    with use_tracer(Tracer()):
        return _run_once(est, readings)


def _null_site_cost_s(samples: int = 200_000) -> float:
    """Wall cost of ONE disabled instrumentation point.

    This is exactly what the hot paths pay when no tracer is installed:
    a context-variable read, a kwargs dict, and the shared no-op span's
    ``__enter__``/``__exit__``.
    """
    from repro.obs import current_tracer

    t0 = time.perf_counter()
    for _ in range(samples):
        with current_tracer().span("bench.site", tag="x", masked=False):
            pass
    return (time.perf_counter() - t0) / samples


def run_benchmark() -> dict:
    est, readings = _build_workload()
    fp_warm = _fingerprint(*_run_once(est, readings))  # warm caches
    paired = paired_overhead(
        lambda: _run_once(est, readings),
        lambda: _enabled_run(est, readings),
    )
    pairs_doc = summary(paired, ndigits=6)
    fp_disabled = _fingerprint(*paired["base_out"])
    fp_enabled = _fingerprint(*paired["treated_out"])
    disabled = paired["base_median_s"]

    # Count the instrumentation points one workload actually hits, then
    # price the disabled path analytically: sites x no-op cost. This is
    # the true overhead vs hypothetically-uninstrumented code, immune to
    # the timer noise that dwarfs it in an end-to-end A/B.
    spans_tracer = Tracer()
    with use_tracer(spans_tracer):
        _run_once(est, readings)
    site_cost = _null_site_cost_s()
    disabled_overhead = (
        spans_tracer.spans_recorded * site_cost / max(disabled, 1e-12)
    )

    report = {
        "benchmark": "obs_overhead",
        "t_tags": T_TAGS,
        "seed": SEED,
        "workload": f"{T_TAGS} scalar estimates + one estimate_batch pass",
        "disabled_wall_s": disabled,
        "enabled_wall_s": paired["treated_median_s"],
        "enabled_pairs": pairs_doc,
        "instrumentation_points_per_workload": spans_tracer.spans_recorded,
        "null_site_cost_ns": round(1e9 * site_cost, 1),
        "disabled_overhead_fraction": round(disabled_overhead, 6),
        "enabled_overhead_fraction": round(paired["overhead_median"], 6),
        "enabled_overhead_iqr": pairs_doc["overhead_iqr"],
    }
    report["acceptance"] = {
        "disabled_budget": DISABLED_BUDGET,
        "enabled_budget": ENABLED_BUDGET,
        "disabled_ok": report["disabled_overhead_fraction"]
        <= DISABLED_BUDGET,
        "enabled_ok": report["enabled_overhead_fraction"] <= ENABLED_BUDGET,
        "bitwise_identical": fp_warm == fp_disabled == fp_enabled,
    }
    return report


def bench_obs_overhead():
    report = run_benchmark()
    emit(
        "Tracer overhead: disabled (null) vs enabled (recording)",
        json.dumps(report, indent=2),
    )
    acc = report["acceptance"]
    assert acc["bitwise_identical"], "tracing perturbed the answers"
    assert acc["disabled_ok"], (
        f"disabled-tracer overhead "
        f"{report['disabled_overhead_fraction']:+.2%} exceeds "
        f"{DISABLED_BUDGET:.0%}"
    )
    assert acc["enabled_ok"], (
        f"median enabled-tracer overhead "
        f"{report['enabled_overhead_fraction']:+.1%} (IQR "
        f"{report['enabled_overhead_iqr']}) exceeds {ENABLED_BUDGET:.0%}"
    )


if __name__ == "__main__":
    import pathlib
    import sys

    out = run_benchmark()
    text = json.dumps(out, indent=2)
    print(text)
    path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_obs_overhead.json"
    )
    path.write_text(text + "\n")
    print(f"wrote {path}", file=sys.stderr)
    acc = out["acceptance"]
    if not (acc["disabled_ok"] and acc["enabled_ok"]
            and acc["bitwise_identical"]):
        print("acceptance FAILED", file=sys.stderr)
        sys.exit(1)
