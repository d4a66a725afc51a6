"""One benchmark session: a fresh process serving one workload once.

Run as ``python3 perfbench/session.py --workload NAME --seed N
--trace 0|1 --workdir DIR`` from the root of a checkout; prints one JSON
object on its last line of standard output. ``run.py`` starts these one
at a time and aggregates them; nothing here is meant to be run by hand.

The clock starts before ``import repro``, so ``setup_s`` covers import,
deployment build, warm-up and schedule generation up to the first
served tick.

Times are reported twice: ``raw_*`` as measured, and speed-adjusted
(multiplied by the session's ``speed_factor``, see
:class:`probes.AnswerClock`), which is what the metrics use. The
benchmark runs on shared machines whose speed drifts by tens of percent
over minutes; the speed witness is sampled at every served tick, so it
tracks that drift where the workload actually runs.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


#: Speed samples taken before ``import repro``, for the set-up's share.
STARTUP_SAMPLES = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--duration", type=float, default=None,
                        help="override the workload's sim-seconds (tests)")
    args = parser.parse_args(argv)

    import probes

    # Speed witness over set-up: samples before the heavy imports.
    startup = [probes.speed_sample() for _ in range(STARTUP_SAMPLES)]
    import repro  # noqa: F401  (timed: part of set-up)
    import workloads

    # The tracer's spans sit inside the answer clock's timing, so the
    # speed samples the clock takes stay out of every layer's time.
    tracer = probes.LayerTracer().install() if args.trace else None
    clock = probes.AnswerClock().install()
    clock.speed.extend(startup)
    kwargs = {} if args.duration is None else {"duration_s": args.duration}
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.workdir, **kwargs
        )
    finally:
        t_end = time.perf_counter()
        clock.restore()
        if tracer is not None:
            tracer.restore()

    speed_s = sum(clock.speed)
    raw_setup_s = clock.first_tick - T_START - sum(startup)
    raw_serve_s = t_end - clock.first_tick - (speed_s - sum(startup))
    f = clock.speed_factor
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": outcome.digest,
        "answers": outcome.answers,
        "offered": outcome.offered,
        "failed": outcome.failed,
        "shed": outcome.shed,
        "degraded": outcome.degraded,
        "mean_error_m": outcome.mean_error_m,
        "speed_factor": f,
        "speed_samples": len(clock.speed),
        "setup_s": raw_setup_s * f,
        "serve_s": raw_serve_s * f,
        "answer_samples": clock.samples,
        # (speed-adjusted ms, answers) per batch call, in call order.
        "answer_calls": [[d * 1e3, n] for d, n in clock.calls],
        "raw_setup_s": raw_setup_s,
        "raw_serve_s": raw_serve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        layers = {
            name: value * f if name.endswith("_s") else value
            for name, value in tracer.metrics().items()
        }
        layers.update({
            "service.queue_wait_sim_p99_s": probes.weighted_quantile(
                [(w, 1) for w in outcome.queue_waits_s], 0.99
            ),
            "zones.handoffs": outcome.handoffs,
            "zones.respawns": outcome.respawns,
            "runtime.ckpt_bytes": outcome.ckpt_bytes,
            "trace.coverage": tracer.coverage(),
        })
        doc["layers"] = layers
        doc["layer_shares"] = tracer.layer_shares()
        doc["probes_missing"] = sorted(
            p.name for p in probes.PROBES
            if p.name not in tracer.installed
        )
        tracer.write(os.path.join(
            args.workdir, f"spans-{args.workload}-{args.seed}.jsonl"
        ))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
