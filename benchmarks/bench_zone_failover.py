"""Zone failover economics: kill a zone mid-run, lose no answers.

The acceptance bar for the failure-tolerant gateway (docs/ZONES.md,
"Failover"): on a 4-zone site with per-zone checkpoints, SIGKILL-ing
one of the zone workers at the halfway mark must

1. **Recover byte-identically** — after the gateway respawns the dead
   zone from its zone-identity checkpoint and replays the gap, the
   multi-zone witness document equals the uninterrupted run's, byte for
   byte.
2. **Keep availability >= 0.99** — measured as the fraction of
   zone-ticks served by a live worker.
3. **Cost <= 5% supervision overhead** — the supervised lockstep loop
   on a fault-free plan vs the bare (``failover=None``) loop, measured
   over the same seeded session: the median of interleaved (bare,
   supervised) pairs with alternating order, published with its
   interquartile range (see ``paired.py``).

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_zone_failover.py -s

or standalone (also writes BENCH_zone_failover.json)::

    PYTHONPATH=src python benchmarks/bench_zone_failover.py
"""

from __future__ import annotations

import json
import tempfile

from repro.faults import FaultPlan, ZoneCrashFault
from repro.service.pipeline import ServiceConfig
from repro.zones import ZoneGateway, scaled_site_plan

try:
    from .conftest import emit
    from .paired import paired_overhead, summary
except ImportError:  # standalone: python benchmarks/bench_zone_failover.py
    from paired import paired_overhead, summary

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

ENV = "Env1"
N_ZONES = 4
KILL_ZONE = "z1"
SEED = 0
DURATION_S = 10.0
KILL_AT_S = DURATION_S / 2
AVAILABILITY_FLOOR = 0.99
OVERHEAD_CEILING = 0.05

#: Same demanding query rate as bench_zone_scaleout: the estimator
#: dominates the tick, so supervision overhead is measured against a
#: realistic denominator rather than an idle loop.
CONFIG = ServiceConfig(query_interval_s=0.125, max_batch_size=16)


def _witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


def run_benchmark() -> dict:
    plan = scaled_site_plan(ENV, N_ZONES, seed=SEED)
    crash = FaultPlan(
        faults=(ZoneCrashFault(zone_id=KILL_ZONE, at_s=KILL_AT_S),)
    )

    # 1) Recovery witness: uninterrupted vs killed-and-respawned, both
    #    with per-zone checkpoints enabled.
    with tempfile.TemporaryDirectory() as clean_dir:
        clean = ZoneGateway(
            plan, CONFIG, checkpoint_dir=clean_dir
        ).run(DURATION_S)
    with tempfile.TemporaryDirectory() as crash_dir:
        killed = ZoneGateway(
            plan, CONFIG, fault_plan=crash, checkpoint_dir=crash_dir
        ).run(DURATION_S)
    recovery_identical = _witness(killed) == _witness(clean)
    availability = killed.summary["availability"]

    # 2) Supervision overhead: supervised vs bare loop on a fault-free
    #    plan. One discarded warm-up, then interleaved pairs with
    #    alternating order so scheduler drift hits both arms equally.
    ZoneGateway(plan, CONFIG, failover=None).run(DURATION_S)
    paired = paired_overhead(
        lambda: ZoneGateway(plan, CONFIG, failover=None).run(DURATION_S),
        lambda: ZoneGateway(plan, CONFIG).run(DURATION_S),
    )
    overhead = paired["overhead_median"]
    pairs_doc = summary(paired)

    return {
        "env": ENV,
        "n_zones": N_ZONES,
        "seed": SEED,
        "duration_s": DURATION_S,
        "kill": {
            "zone": KILL_ZONE,
            "at_s": KILL_AT_S,
            "crashes": int(killed.summary["zone_crashes"]),
            "respawns": int(killed.summary["zone_respawns"]),
            "zones_down_at_end": int(killed.summary["zones_down"]),
            "results": int(killed.summary["results"]),
            "clean_results": int(clean.summary["results"]),
        },
        "overhead_pairs": pairs_doc,
        "acceptance": {
            "availability_floor": AVAILABILITY_FLOOR,
            "availability": round(availability, 6),
            "availability_ok": availability >= AVAILABILITY_FLOOR,
            "recovery_identical": recovery_identical,
            "overhead_ceiling": OVERHEAD_CEILING,
            "overhead": round(overhead, 4),
            "overhead_iqr": pairs_doc["overhead_iqr"],
            "overhead_ok": overhead <= OVERHEAD_CEILING,
        },
    }


def test_zone_failover_benchmark():
    report = run_benchmark()
    emit("zone failover", json.dumps(report, indent=2))
    acc = report["acceptance"]
    assert acc["recovery_identical"], (
        "post-respawn answers are not byte-identical to the "
        "uninterrupted run"
    )
    assert acc["availability_ok"], (
        f"availability {acc['availability']} is below the "
        f"{AVAILABILITY_FLOOR} floor after killing {KILL_ZONE}"
    )
    assert acc["overhead_ok"], (
        f"median supervision overhead {acc['overhead']:.1%} (IQR "
        f"{acc['overhead_iqr']}) exceeds {OVERHEAD_CEILING:.0%}"
    )


if __name__ == "__main__":
    out = run_benchmark()
    emit("zone failover", json.dumps(out, indent=2))
    ok = all(
        out["acceptance"][key]
        for key in ("availability_ok", "recovery_identical", "overhead_ok")
    )
    with open("BENCH_zone_failover.json", "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_zone_failover.json")
    raise SystemExit(0 if ok else 1)
