"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure <fig2b|fig3|fig4|fig6|fig7|fig8>``
    Regenerate one of the paper's figures and print it.
``compare``
    VIRE vs LANDMARC (and optional extra baselines) in one environment,
    with the CDF table and the paired bootstrap verdict.
``report``
    The full reproduction report (all figures + statistics). With
    ``--from DIR`` it instead regenerates the capacity report from a
    load sweep's JSONL via the figure registry
    (:mod:`repro.analysis.registry`): ``--list-figures`` enumerates the
    registered figures, ``--figure NAME`` regenerates one in isolation,
    ``--out DIR`` writes one ``report_<figure>.json`` artifact per
    figure, and ``--json`` prints the canonical document (byte-identical
    across reruns over the same sweep — the CI load-smoke artifact).
``loadtest``
    Seeded open-loop load sweep (docs/LOADTEST.md): a deterministic
    arrival schedule (uniform/Poisson/bursty) drives the zone worker or
    the multi-zone gateway at one or more rate multipliers; each sweep
    point's witness document lands in ``load_sweep.jsonl`` and the
    fitted capacity report in ``capacity_report.json``. Same seed ⇒
    byte-identical schedule, witness and report.
``track``
    Demo: track a moving asset through the full event-driven testbed.
``serve``
    Run the real-time streaming localization service over a seeded
    scenario: live result table, then the metrics dump (cache hit rate,
    batches flushed, degraded requests, latency quantiles).
``chaos``
    Run the streaming service under a seeded fault plan (reader
    outages, burst loss, tag deaths, calibration drift, delays) and
    report availability, degradation-ladder usage and accuracy. With
    ``--json`` the output is a deterministic JSON document: running the
    same command twice must print byte-identical JSON, which the CI
    chaos-smoke job asserts.
``trace``
    Deterministic span tracing (``docs/OBSERVABILITY.md``):
    ``trace record`` runs a seeded serve session with the tracer
    enabled and streams the span forest to a JSONL trace file;
    ``trace summary`` prints the per-stage latency table (top-N by self
    time, p50/p95/p99) and the degradation-ladder breakdown;
    ``trace canon`` prints the canonical *logical* JSON (wall times
    stripped — the byte-identity artifact of the CI trace-smoke job);
    ``trace diff`` compares two traces and exits 1 when their logical
    content diverges.

Errors of the :class:`~repro.exceptions.ReproError` family (bad paths,
invalid configuration, refused resumes) print one ``error: ...`` line on
stderr and exit with code 2 — the same code argparse uses for usage
errors — instead of a traceback.

Crash resilience (``docs/RUNTIME.md``): ``serve`` accepts
``--checkpoint PATH`` (write-ahead JSONL checkpoint), ``--resume``
(continue a checkpointed session after a crash) and ``--kill-at T``
(simulate a hard kill at simulated time ``T``; exits with code 17 and
no final snapshot). ``serve --json`` prints the session's deterministic
witness document — the CI recovery-smoke job kills a seeded session,
resumes it, and asserts the resumed witness is byte-identical to an
uninterrupted run's. Both ``serve`` and ``chaos`` shut down gracefully
on SIGINT/SIGTERM: the batcher drains, a final snapshot is flushed, and
the metrics summary still prints.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import Iterator, Sequence

from . import __version__
from .analysis import cdf_comparison, format_cdf_comparison, paired_bootstrap
from .analysis.report import reproduction_report
from .baselines import (
    LandmarcEstimator,
    NearestReferenceEstimator,
    WeightedCentroidEstimator,
)
from .core.config import VIREConfig
from .core.estimator import VIREEstimator
from .exceptions import ConfigurationError, ReproError
from .experiments import figures
from .experiments.runner import run_scenario
from .experiments.scenarios import paper_scenario

__all__ = ["main", "build_parser"]

_FIGURES = {
    "fig2b": lambda args: figures.format_fig2b(
        figures.fig2b(n_trials=args.trials, base_seed=args.seed)
    ),
    "fig3": lambda args: figures.format_fig3(figures.fig3(seed=args.seed)),
    "fig4": lambda args: figures.format_fig4(figures.fig4(seed=args.seed)),
    "fig6": lambda args: figures.format_fig6(
        figures.fig6(n_trials=args.trials, base_seed=args.seed)
    ),
    "fig7": lambda args: figures.format_fig7(
        figures.fig7(n_trials=args.trials, base_seed=args.seed)
    ),
    "fig8": lambda args: figures.format_fig8(
        figures.fig8(n_trials=args.trials, base_seed=args.seed)
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VIRE (ICPP 2007) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("name", choices=sorted(_FIGURES))
    fig.add_argument("--trials", type=int, default=15)
    fig.add_argument("--seed", type=int, default=0)

    cmp_ = sub.add_parser("compare", help="VIRE vs LANDMARC in one environment")
    cmp_.add_argument("--env", default="Env3", choices=["Env1", "Env2", "Env3"])
    cmp_.add_argument("--trials", type=int, default=15)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument(
        "--all-baselines",
        action="store_true",
        help="also run nearest-reference and soft-centroid baselines",
    )

    rep = sub.add_parser("report", help="full reproduction report")
    rep.add_argument("--trials", type=int, default=15)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--no-sweeps", action="store_true",
                     help="skip the slow Fig. 7/8 sweeps")
    rep.add_argument("--from", dest="from_dir", default=None, metavar="DIR",
                     help="regenerate the capacity report from a "
                          "`loadtest --out DIR` sweep instead of running "
                          "the paper reproduction")
    rep.add_argument("--figure", default=None, metavar="NAME",
                     help="with --from: regenerate one registered figure "
                          "in isolation")
    rep.add_argument("--list-figures", action="store_true",
                     help="list the registered capacity figures and exit")
    rep.add_argument("--json", action="store_true",
                     help="with --from: print the canonical JSON document "
                          "(byte-identical across reruns; CI load smoke)")
    rep.add_argument("--out", default=None, metavar="DIR",
                     help="with --from: write one report_<figure>.json "
                          "artifact per figure into DIR")

    lt = sub.add_parser(
        "loadtest", help="seeded open-loop load sweep (docs/LOADTEST.md)"
    )
    lt.add_argument("--profile", default="steady",
                    choices=["steady", "poisson", "burst"],
                    help="traffic shape preset")
    lt.add_argument("--env", default="Env1", choices=["Env1", "Env2", "Env3"])
    lt.add_argument("--zones", type=int, default=1, metavar="N",
                    help="1 = single zone worker; >1 = the zone gateway")
    lt.add_argument("--duration", type=float, default=12.0,
                    help="schedule horizon in simulated seconds")
    lt.add_argument("--seed", type=int, default=0)
    lt.add_argument("--rate", type=float, default=4.0,
                    help="base per-zone arrival rate (queries/s)")
    lt.add_argument("--points", default="1",
                    help="comma-separated rate multipliers, one sweep "
                         "point each (e.g. 1,2,4)")
    lt.add_argument("--max-batches", type=int, default=None, metavar="K",
                    help="executor budget: at most K batches per tick "
                         "(models limited cores; omit for unbounded)")
    lt.add_argument("--admission-rate", type=float, default=None,
                    metavar="R", help="per-zone admission token rate "
                                      "(queries/s); omit to admit all")
    lt.add_argument("--subdivisions", type=int, default=None, metavar="N",
                    help="override the VIRE virtual grid subdivisions "
                         "(small N = cheap smoke runs)")
    lt.add_argument("--out", default=None, metavar="DIR",
                    help="write load_sweep.jsonl + capacity_report.json "
                         "into DIR")
    lt.add_argument("--json", action="store_true",
                    help="print the canonical capacity report JSON "
                         "(byte-identical across same-seed reruns)")
    lt.add_argument("--quiet", action="store_true",
                    help="suppress the per-point progress lines")

    trk = sub.add_parser("track", help="moving-asset tracking demo")
    trk.add_argument("--env", default="Env3", choices=["Env1", "Env2", "Env3"])
    trk.add_argument("--seed", type=int, default=7)

    srv = sub.add_parser("serve", help="run the streaming localization service")
    srv.add_argument("--env", default="Env3", choices=["Env1", "Env2", "Env3"])
    srv.add_argument("--duration", type=float, default=10.0,
                     help="streamed session length in simulated seconds")
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--batch-size", type=int, default=8,
                     help="micro-batch flush size")
    srv.add_argument("--max-latency", type=float, default=1.0,
                     help="micro-batch flush deadline (service seconds)")
    srv.add_argument("--query-interval", type=float, default=2.0,
                     help="per-tag localization query period (service seconds)")
    srv.add_argument("--no-cache", action="store_true",
                     help="disable the interpolation cache")
    srv.add_argument("--quantization-db", type=float, default=0.0,
                     help="cache key quantization (0 = exact keys)")
    srv.add_argument("--quiet", action="store_true",
                     help="suppress the live per-result rows")
    srv.add_argument("--prometheus", action="store_true",
                     help="append the full Prometheus text exposition")
    srv.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="write-ahead JSONL checkpoint file "
                          "(see docs/RUNTIME.md)")
    srv.add_argument("--resume", action="store_true",
                     help="resume the session from --checkpoint "
                          "(replays the seeded stream to the last "
                          "snapshot, then continues live)")
    srv.add_argument("--kill-at", type=float, default=None, metavar="T",
                     help="simulate a hard kill at simulated time T "
                          "(no drain, no final snapshot; exit code 17)")
    srv.add_argument("--json", action="store_true",
                     help="print the deterministic witness document "
                          "(CI recovery smoke)")
    srv.add_argument("--zones", type=int, default=None, metavar="N",
                     help="run N shared-nothing zones behind the gateway "
                          "(repro.zones; see docs/ZONES.md)")
    srv.add_argument("--parallel", action="store_true",
                     help="with --zones: one process per zone "
                          "(bit-identical to the serial lockstep)")
    srv.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="with --zones: one write-ahead checkpoint file "
                          "per zone in DIR (zone respawn and --resume)")
    srv.add_argument("--kill-zone", default=None, metavar="ZID@T",
                     help="with --zones: crash zone ZID at simulated "
                          "time T; the gateway respawns it from its "
                          "checkpoint and replays the gap (CI "
                          "zone-failover smoke)")
    srv.add_argument("--no-failover", action="store_true",
                     help="with --zones: bare gateway loop without the "
                          "supervision layer (no retries, no respawn; "
                          "bit-identical to the supervised loop on a "
                          "fault-free run)")

    cha = sub.add_parser(
        "chaos", help="streaming service under an injected fault plan"
    )
    cha.add_argument("--env", default="Env1", choices=["Env1", "Env2", "Env3"])
    cha.add_argument("--duration", type=float, default=45.0,
                     help="streamed session length in simulated seconds "
                          "(middleware staleness horizon is 30s, so runs "
                          "longer than that exercise the full ladder)")
    cha.add_argument("--seed", type=int, default=0,
                     help="seed for both the scenario and the fault plan")
    cha.add_argument("--preset", default="moderate",
                     choices=["none", "light", "moderate", "severe",
                              "drift"],
                     help="fault-plan intensity preset")
    cha.add_argument("--calibrate", action="store_true",
                     help="enable the self-healing calibration loop: "
                          "online per-reader drift correction and "
                          "reference-tag quarantine from reference "
                          "residuals (docs/CALIBRATION.md)")
    cha.add_argument("--outage-reader", default=None,
                     help="add a hard outage of this reader id "
                          "(e.g. reader-0) on top of the preset")
    cha.add_argument("--outage-start", type=float, default=8.0,
                     help="outage start (simulated seconds)")
    cha.add_argument("--outage-duration", type=float, default=30.0,
                     help="outage length (simulated seconds)")
    cha.add_argument("--query-interval", type=float, default=1.0,
                     help="per-tag localization query period")
    cha.add_argument("--strict", action="store_true",
                     help="disable partial snapshots (pre-faults behaviour)")
    cha.add_argument("--json", action="store_true",
                     help="print a deterministic JSON summary (CI smoke)")
    cha.add_argument("--zones", type=int, default=None, metavar="N",
                     help="run the plan through the N-zone gateway and "
                          "add a zone-scoped control-plane fault "
                          "(see docs/FAULTS.md)")
    cha.add_argument("--zone-preset", default="crash",
                     choices=["none", "crash", "hang", "partition",
                              "brownout"],
                     help="zone-scoped fault preset (with --zones)")
    cha.add_argument("--zone-id", default="z0",
                     help="target zone for --zone-preset (with --zones)")
    cha.add_argument("--zone-fault-start", type=float, default=8.0,
                     help="zone fault start (simulated seconds)")
    cha.add_argument("--zone-fault-duration", type=float, default=10.0,
                     help="zone fault window length (partition/brownout)")

    trc = sub.add_parser(
        "trace", help="record, summarize and diff deterministic span traces"
    )
    tsub = trc.add_subparsers(dest="trace_command", required=True)
    trec = tsub.add_parser(
        "record", help="record a seeded serve session with tracing enabled"
    )
    trec.add_argument("--env", default="Env1",
                      choices=["Env1", "Env2", "Env3"])
    trec.add_argument("--duration", type=float, default=8.0,
                      help="streamed session length in simulated seconds")
    trec.add_argument("--seed", type=int, default=0)
    trec.add_argument("--query-interval", type=float, default=1.0,
                      help="per-tag localization query period")
    trec.add_argument("--out", required=True, metavar="PATH",
                      help="JSONL trace file to write")
    tsum = tsub.add_parser(
        "summary", help="per-stage latency table and ladder breakdown"
    )
    tsum.add_argument("path", help="trace file (from `trace record`)")
    tsum.add_argument("--top", type=int, default=10,
                      help="stages to list, ranked by self time")
    tcan = tsub.add_parser(
        "canon",
        help="print the canonical logical JSON (wall times stripped; "
             "byte-identical across seeded reruns)",
    )
    tcan.add_argument("path", help="trace file (from `trace record`)")
    tdif = tsub.add_parser(
        "diff", help="compare two traces; exit 1 when they diverge"
    )
    tdif.add_argument("a", help="first trace file")
    tdif.add_argument("b", help="second trace file")
    tdif.add_argument("--wall", action="store_true",
                      help="also compare wall-clock fields "
                           "(only meaningful for identical recordings)")
    tdif.add_argument("--max-diffs", type=int, default=10,
                      help="stop after this many reported divergences")

    hm = sub.add_parser("heatmap", help="spatial error map of an estimator")
    hm.add_argument("--env", default="Env3", choices=["Env1", "Env2", "Env3"])
    hm.add_argument("--estimator", default="vire",
                    choices=["vire", "landmarc", "softvire"])
    hm.add_argument("--resolution", type=int, default=9)
    hm.add_argument("--trials", type=int, default=4)
    hm.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_figure(args) -> str:
    return _FIGURES[args.name](args)


def _cmd_compare(args) -> str:
    scenario = paper_scenario(args.env, n_trials=args.trials, base_seed=args.seed)
    estimators = [
        LandmarcEstimator(),
        VIREEstimator(scenario.grid, VIREConfig(target_total_tags=900)),
    ]
    if args.all_baselines:
        estimators += [NearestReferenceEstimator(), WeightedCentroidEstimator()]
    result = run_scenario(scenario, estimators)
    lines = [f"{args.env}, {args.trials} trials:"]
    for est in result.estimators:
        s = est.summary()
        lines.append(
            f"  {est.estimator_name:18s} mean {s.mean:.3f} m, "
            f"median {s.median:.3f}, p90 {s.p90:.3f}, max {s.maximum:.3f}"
        )
    lines.append("")
    lines.append(format_cdf_comparison(cdf_comparison(result)))
    lines.append("")
    lines.append(str(paired_bootstrap(result, "LANDMARC", "VIRE")))
    return "\n".join(lines)


def _cmd_report(args) -> str:
    import json as _json

    from .analysis.registry import (
        build_capacity_report,
        build_figure,
        figure_names,
        get_figure,
        load_sweep,
    )

    if args.list_figures:
        lines = ["registered capacity figures:"]
        for name in figure_names():
            spec = get_figure(name)
            lines.append(f"  {name:22s} {spec.description}")
        return "\n".join(lines)
    if args.from_dir is None:
        for flag, name in (
            (args.figure, "--figure"),
            (args.json, "--json"),
            (args.out, "--out"),
        ):
            if flag:
                raise ConfigurationError(f"{name} requires --from DIR")
        return reproduction_report(
            n_trials=args.trials,
            base_seed=args.seed,
            include_sweeps=not args.no_sweeps,
        )

    points = load_sweep(args.from_dir)
    if args.figure is not None:
        doc = build_figure(args.figure, points)
    else:
        doc = build_capacity_report(points, meta={"n_points": len(points)})
    if args.out is not None:
        import os

        os.makedirs(args.out, exist_ok=True)
        names = (args.figure,) if args.figure is not None else figure_names()
        written = []
        for name in names:
            spec = get_figure(name)
            path = os.path.join(args.out, spec.artifact)
            with open(path, "w") as fh:
                fh.write(
                    _json.dumps(
                        build_figure(name, points),
                        indent=2,
                        sort_keys=True,
                    )
                    + "\n"
                )
            written.append(spec.artifact)
        if not args.json:
            return (
                f"regenerated {len(written)} figure artifact(s) from "
                f"{len(points)} sweep point(s) -> {args.out}: "
                + ", ".join(written)
            )
    if args.json:
        return _json.dumps(doc, sort_keys=True, indent=2)
    return _format_capacity_report(doc, points)


def _format_capacity_report(doc, points) -> str:
    """Human view of a regenerated capacity report (or one figure)."""
    lines = [f"capacity report over {len(points)} sweep point(s):"]
    figures = doc.get("figures", {doc.get("figure", "figure"): doc})
    for name in sorted(figures):
        fig = figures[name]
        lines.append(f"\n{name}: {fig.get('description', '')}")
        data = fig.get("data", {})
        if "series" in data:
            for row in data["series"]:
                cells = ", ".join(
                    f"{k}={v}" for k, v in row.items() if k != "profile"
                )
                lines.append(f"  {row.get('profile', '?'):14s} {cells}")
        elif "coefficients" in data:
            lines.append(
                f"  intercept {data['intercept']}  r2 {data['r2']}  "
                f"(n={data['n_points']})"
            )
            for feat, coef in data["coefficients"].items():
                lines.append(f"  {feat:20s} {coef:+}")
        if "peak_sustained_per_s" in data:
            lines.append(
                f"  peak sustained {data['peak_sustained_per_s']} "
                f"localizations/s"
            )
    return "\n".join(lines)


def _cmd_loadtest(args) -> str:
    import json as _json

    from .analysis.registry import SWEEP_FILENAME, build_capacity_report
    from .loadtest import preset_profile, run_load_test
    from .service import ServiceConfig

    try:
        multipliers = [
            float(tok) for tok in args.points.split(",") if tok.strip()
        ]
    except ValueError:
        raise ConfigurationError(
            f"--points expects comma-separated numbers, got {args.points!r}"
        ) from None
    if not multipliers:
        raise ConfigurationError("--points names no sweep points")
    if args.zones < 1:
        raise ConfigurationError(f"--zones must be >= 1, got {args.zones}")

    base = preset_profile(args.profile).with_(
        environment=args.env,
        n_zones=args.zones,
        duration_s=args.duration,
        seed=args.seed,
        rate_per_s=args.rate,
        max_batches_per_tick=args.max_batches,
        admission_rate_per_s=args.admission_rate,
    )
    config = None
    if args.subdivisions is not None:
        config = ServiceConfig(vire=VIREConfig(subdivisions=args.subdivisions))

    quiet = args.quiet or args.json
    reports = []
    for mult in multipliers:
        profile = base.with_(
            name=f"{args.profile}-x{mult:g}",
            rate_per_s=args.rate * mult,
        )
        report = run_load_test(profile, config=config)
        reports.append(report)
        if not quiet:
            slo = report.slo
            print(
                f"  {profile.name:14s} offered {report.offered:5d}  "
                f"served {report.served:5d}  "
                f"avail {100 * slo['availability']:5.1f}%  "
                f"p99 {slo['latency']['p99_s']:.3f}s  "
                f"sustained {slo['sustained_per_s']:.1f}/s  "
                f"(wall {report.wall_s:.2f}s)"
            )

    points = [r.witness_document() for r in reports]
    capacity = build_capacity_report(
        points,
        meta={
            "profile": args.profile,
            "env": args.env,
            "zones": args.zones,
            "seed": args.seed,
            "rate_per_s": args.rate,
            "multipliers": multipliers,
            "duration_s": args.duration,
        },
    )
    if args.out is not None:
        import os

        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, SWEEP_FILENAME), "w") as fh:
            for point in points:
                fh.write(_json.dumps(point, sort_keys=True) + "\n")
        with open(os.path.join(args.out, "capacity_report.json"), "w") as fh:
            fh.write(_json.dumps(capacity, sort_keys=True, indent=2) + "\n")
        if not quiet:
            print(
                f"  wrote {SWEEP_FILENAME} ({len(points)} point(s)) and "
                f"capacity_report.json -> {args.out}"
            )
    if args.json:
        return _json.dumps(capacity, sort_keys=True, indent=2)
    return _format_capacity_report(capacity, points)


def _cmd_track(args) -> str:
    from .hardware.deployment import build_paper_deployment
    from .hardware.middleware import SmoothingSpec
    from .rf.environments import environment_by_name
    from .tracking import KalmanFilter2D, TagTracker, Trajectory, evaluate_track
    from .utils.ascii import format_table

    route = Trajectory.constant_speed(
        [(0.5, 0.5), (2.5, 0.7), (2.4, 2.5), (0.6, 2.4)],
        speed_mps=0.15,
        start_time_s=10.0,
    )
    deployment = build_paper_deployment(
        environment_by_name(args.env),
        tracking_tags={"asset": route.position_at(0.0)},
        seed=args.seed,
        smoothing=SmoothingSpec(mode="window", window=10),
        tracking_smoothing=SmoothingSpec(mode="window", window=2),
    )
    simulator = deployment.simulator
    vire = VIREEstimator(deployment.grid, VIREConfig(target_total_tags=900))
    tracker = TagTracker(
        vire, KalmanFilter2D(measurement_sigma_m=0.8, process_accel=0.08)
    )
    simulator.warm_up()
    rows = []
    while simulator.now < route.end_time_s:
        deployment.move_tracking_tag("asset", route.position_at(simulator.now))
        simulator.run_for(3.0)
        point = tracker.ingest_from(
            simulator.now, lambda: simulator.reading_for("asset")
        )
        if point.filtered is not None:
            true = route.position_at(simulator.now)
            rows.append(
                [
                    f"{simulator.now:.0f}s",
                    f"({true[0]:.2f}, {true[1]:.2f})",
                    f"({point.filtered[0]:.2f}, {point.filtered[1]:.2f})",
                ]
            )
    stats = evaluate_track(route, tracker.fixes())
    table = format_table(
        ["t", "true", "tracked"], rows, title=f"tracking in {args.env}"
    )
    return (
        table
        + f"\n\nRMSE {stats.rmse_m:.3f} m over {stats.n_fixes} fixes "
        + f"({tracker.dropout_count} dropouts)"
    )


@contextlib.contextmanager
def _graceful_sigterm() -> Iterator[None]:
    """Translate SIGTERM into :class:`KeyboardInterrupt` for the session.

    :meth:`LocalizationService.run` treats ``KeyboardInterrupt`` as a
    graceful shutdown (checkpoint sealed at the last complete tick,
    drain, summary), so routing SIGTERM through the same path makes
    ``kill <pid>`` as clean as Ctrl-C. Restores the previous handler on exit; degrades to a
    no-op off the main thread (signal handlers cannot be installed
    there).
    """

    def _raise(signum, frame):  # pragma: no cover - exercised via signal
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # not the main thread: keep default behaviour
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_serve(args) -> str:
    import json as _json

    from .experiments.scenarios import paper_scenario
    from .faults import CrashPoint, SimulatedCrash
    from .service import LocalizationService, ServiceConfig

    config = ServiceConfig(
        max_batch_size=args.batch_size,
        max_latency_s=args.max_latency,
        query_interval_s=args.query_interval,
        cache_enabled=not args.no_cache,
        cache_quantization_db=args.quantization_db,
    )
    if args.zones is not None:
        return _cmd_serve_zones(args, config)
    for flag, name in (
        (args.parallel, "--parallel"),
        (args.checkpoint_dir, "--checkpoint-dir"),
        (args.kill_zone, "--kill-zone"),
        (args.no_failover, "--no-failover"),
    ):
        if flag:
            raise ConfigurationError(f"{name} requires --zones N")
    scenario = paper_scenario(args.env, n_trials=1, base_seed=args.seed)
    service = LocalizationService(config)
    crash_point = None
    if args.kill_at is not None:
        crash_point = CrashPoint(at_s=args.kill_at)

    def live_row(result) -> None:
        flag = f" DEGRADED({result.reason})" if result.degraded else ""
        print(
            f"  t={result.completed_at_s:7.2f}s  {result.tag_id:8s} "
            f"-> ({result.position[0]:5.2f}, {result.position[1]:5.2f})  "
            f"[{result.estimator}]{flag}"
        )

    if args.resume and args.checkpoint is None:
        raise ConfigurationError("--resume requires --checkpoint PATH")
    if args.resume and args.kill_at is not None:
        raise ConfigurationError(
            "--resume and --kill-at conflict: --resume continues a crashed "
            "session; to crash it again, run a separate serve with --kill-at"
        )
    quiet = args.quiet or args.json
    if not quiet:
        print(f"serving {args.env} for {args.duration:g}s (seed {args.seed}):")
    try:
        with _graceful_sigterm():
            report = service.run(
                scenario,
                args.duration,
                on_result=None if quiet else live_row,
                checkpoint_path=args.checkpoint,
                resume=args.resume,
                crash_point=crash_point,
            )
    except SimulatedCrash as crash:
        print(
            f"simulated crash: {crash}"
            + (f" (checkpoint: {args.checkpoint})" if args.checkpoint else ""),
            file=sys.stderr,
        )
        raise SystemExit(17) from crash

    if args.json:
        # Deterministic witness only: a resumed session must print
        # byte-identical JSON to an uninterrupted one (CI recovery smoke).
        doc = report.witness_document()
        doc["env"] = args.env
        doc["seed"] = args.seed
        doc["duration_s"] = args.duration
        return _json.dumps(doc, sort_keys=True, indent=2)

    s = report.summary
    lines = [
        "",
        f"session summary ({args.env}, {s['session_duration_s']:g}s streamed, "
        f"seed {args.seed}):",
        f"  requests served      {s['results']:.0f}"
        f"  (failed {s['failed']:.0f})",
        f"  degraded requests    {s['degraded']:.0f} "
        f"({100 * s['degraded_fraction']:.1f}%)",
        f"  batches flushed      {s['batches_flushed']:.0f}",
        f"  records streamed     {s['records_streamed']:.0f} "
        f"(dropped {s['records_dropped']:.0f}, "
        f"queue high-water {s['queue_high_watermark']:.0f})",
        f"  cache hit rate       {100 * s['cache_hit_rate']:.1f}% "
        f"({s['cache_hits']:.0f} hits / {s['cache_misses']:.0f} misses)",
        f"  latency p50          {1e3 * s['latency_p50_s']:.3f} ms",
        f"  latency p99          {1e3 * s['latency_p99_s']:.3f} ms",
        f"  throughput           {s['localizations_per_s']:.1f} localizations/s "
        f"(wall {s['wall_time_s']:.2f}s)",
        f"  mean error           {report.mean_error_m:.3f} m "
        f"over {len(report.errors_m)} ground-truth results",
    ]
    if "interrupted" in s:
        lines.append("  shutdown             graceful (interrupted; "
                     "batcher drained, final snapshot flushed)")
    if "resumed" in s:
        lines.append(
            f"  resumed              yes "
            f"({s['resume_results_restored']:.0f} results restored "
            f"from checkpoint)"
        )
    if "checkpoint_snapshots" in s:
        lines.append(
            f"  checkpoint           {s['checkpoint_results_logged']:.0f} "
            f"results logged, {s['checkpoint_snapshots']:.0f} snapshot(s) "
            f"-> {args.checkpoint}"
        )
    if args.prometheus:
        lines += ["", report.render_prometheus()]
    return "\n".join(lines)


def _parse_kill_zone(value: str) -> tuple[str, float]:
    """Parse a ``--kill-zone ZID@T`` operand into ``(zone_id, at_s)``."""
    zone_id, sep, at_text = value.partition("@")
    if not sep or not zone_id:
        raise ConfigurationError(
            f"--kill-zone expects ZID@T (e.g. z1@5.0), got {value!r}"
        )
    try:
        at_s = float(at_text)
    except ValueError:
        raise ConfigurationError(
            f"--kill-zone time must be a number, got {at_text!r}"
        ) from None
    return zone_id, at_s


def _cmd_serve_zones(args, config) -> str:
    """``serve --zones N``: the scaled site through the zone gateway."""
    import json as _json

    from .faults import FaultPlan, ZoneCrashFault
    from .zones import ZoneGateway, scaled_site_plan

    if args.zones < 1:
        raise ConfigurationError(f"--zones must be >= 1, got {args.zones}")
    for flag, name in (
        (args.checkpoint, "--checkpoint"),
        (args.kill_at, "--kill-at"),
    ):
        if flag:
            raise ConfigurationError(
                f"{name} is not supported with --zones: the gateway owns "
                f"one checkpoint file per zone (use --checkpoint-dir)"
            )
    if args.resume and args.checkpoint_dir is None:
        raise ConfigurationError(
            "--resume with --zones requires --checkpoint-dir DIR"
        )
    if args.checkpoint_dir is not None:
        import os

        os.makedirs(args.checkpoint_dir, exist_ok=True)
    plan = scaled_site_plan(args.env, args.zones, seed=args.seed)
    fault_plan = None
    if args.kill_zone is not None:
        zone_id, at_s = _parse_kill_zone(args.kill_zone)
        if zone_id not in {spec.zone_id for spec in plan.zones}:
            raise ConfigurationError(
                f"--kill-zone targets unknown zone {zone_id!r} "
                f"(have z0..z{args.zones - 1})"
            )
        fault_plan = FaultPlan(faults=(ZoneCrashFault(zone_id, at_s=at_s),))
    gateway_kw = {}
    if args.no_failover:
        gateway_kw["failover"] = None
    gateway = ZoneGateway(
        plan, config,
        fault_plan=fault_plan,
        checkpoint_dir=args.checkpoint_dir,
        **gateway_kw,
    )
    quiet = args.quiet or args.json
    if not quiet:
        print(
            f"serving {args.env} x {args.zones} zones for "
            f"{args.duration:g}s (seed {args.seed}"
            f"{', parallel' if args.parallel else ''}):"
        )
    with _graceful_sigterm():
        report = gateway.run(
            args.duration, parallel=args.parallel, resume=args.resume
        )

    if args.json:
        # Deterministic witness only: two seeded runs must print
        # byte-identical JSON (CI zone-smoke job).
        doc = report.witness_document()
        doc["env"] = args.env
        doc["seed"] = args.seed
        doc["duration_s"] = args.duration
        doc["zones_requested"] = args.zones
        # Only a faulted run earns a supervision block: the fault-free
        # JSON stays byte-identical to --parallel and to the
        # pre-failover gateway.
        if fault_plan is not None and "availability" in report.summary:
            fs = report.summary
            doc["failover"] = {
                "availability": round(fs["availability"], 9),
                "zone_crashes": int(fs["zone_crashes"]),
                "zone_respawns": int(fs["zone_respawns"]),
                "zone_timeouts": int(fs["zone_timeouts"]),
                "zone_link_failures": int(fs["zone_link_failures"]),
                "zones_down": int(fs["zones_down"]),
                "requests_shed": int(fs["requests_shed"]),
                "handoffs_rerouted": int(fs["handoffs_rerouted"]),
                "interim_results": int(fs["interim_results"]),
            }
        return _json.dumps(doc, sort_keys=True, indent=2)

    s = report.summary
    lines = [
        "",
        f"site summary ({args.env} x {int(s['zones'])} zones, "
        f"seed {args.seed}):",
        f"  requests served      {s['results']:.0f}"
        f"  (failed {s['failed']:.0f})",
        f"  degraded requests    {s['degraded']:.0f}",
        f"  handoffs             {s['handoffs']:.0f}",
        f"  records streamed     {s['records_streamed']:.0f}",
        f"  throughput           {s['localizations_per_s']:.1f} "
        f"localizations/s (wall {s['wall_time_s']:.2f}s)",
    ]
    if "availability" in s:
        lines.append(
            f"  availability         {100 * s['availability']:.2f}%  "
            f"(crashes {s['zone_crashes']:.0f}, respawns "
            f"{s['zone_respawns']:.0f}, zones down at end "
            f"{s['zones_down']:.0f})"
        )
        if s["interim_results"] or s["requests_shed"] or \
                s["handoffs_rerouted"]:
            lines.append(
                f"  degraded service     interim answers "
                f"{s['interim_results']:.0f}, shed queries "
                f"{s['requests_shed']:.0f}, rerouted handoffs "
                f"{s['handoffs_rerouted']:.0f}"
            )
    if "interrupted" in s:
        lines.append("  shutdown             graceful (interrupted; "
                     "all zones drained)")
    for zid, zreport in report.zones.items():
        zs = zreport.summary
        lines.append(
            f"  zone {zid:8s} results {zs['results']:.0f} "
            f"(degraded {zs['degraded']:.0f}, failed {zs['failed']:.0f}), "
            f"mean error {zreport.mean_error_m:.3f} m"
        )
    if args.prometheus:
        lines += ["", report.render_prometheus()]
    return "\n".join(lines)


def _cmd_chaos_zones(args) -> str:
    """``chaos --zones N``: control-plane faults through the gateway.

    The record-path preset still applies (unprefixed faults reach every
    zone verbatim via :func:`slice_fault_plan`); on top of it one
    zone-scoped fault from ``--zone-preset`` exercises the gateway's
    failover path: crash → respawn + gap replay, hang → deadline
    timeouts then kill, partition → fall behind and catch up,
    brownout → admission saturation.
    """
    import json as _json

    from .faults import (
        FaultPlan,
        ReaderOutageFault,
        chaos_preset,
        zone_chaos_preset,
    )
    from .service import ServiceConfig
    from .zones import ZoneGateway, scaled_site_plan

    if args.zones < 1:
        raise ConfigurationError(f"--zones must be >= 1, got {args.zones}")
    site = scaled_site_plan(args.env, args.zones, seed=args.seed)
    zone_ids = {spec.zone_id for spec in site.zones}
    if args.zone_preset != "none" and args.zone_id not in zone_ids:
        raise ConfigurationError(
            f"--zone-id {args.zone_id!r} is not in the site "
            f"(have z0..z{args.zones - 1})"
        )
    record_plan = chaos_preset(args.preset, seed=args.seed)
    if args.outage_reader is not None:
        record_plan = record_plan.with_fault(
            ReaderOutageFault(
                reader_id=args.outage_reader,
                start_s=args.outage_start,
                duration_s=args.outage_duration,
            )
        )
    zone_faults = zone_chaos_preset(
        args.zone_preset,
        zone_id=args.zone_id,
        seed=args.seed,
        start_s=args.zone_fault_start,
        duration_s=args.zone_fault_duration,
    )
    plan = FaultPlan(
        tuple(record_plan) + tuple(zone_faults), seed=args.seed
    )
    config = ServiceConfig(
        query_interval_s=args.query_interval,
        allow_partial=not args.strict,
    )
    with _graceful_sigterm():
        report = ZoneGateway(site, config, fault_plan=plan).run(
            args.duration
        )
    s = report.summary

    if args.json:
        doc = {
            "env": args.env,
            "seed": args.seed,
            "zones": args.zones,
            "preset": args.preset,
            "zone_preset": args.zone_preset,
            "zone_id": args.zone_id,
            "duration_s": args.duration,
            "faults": len(plan),
            "requests": int(s["requests"]),
            "results": int(s["results"]),
            "failed": int(s["failed"]),
            "degraded": int(s["degraded"]),
            "availability": round(s["availability"], 9),
            "zone_crashes": int(s["zone_crashes"]),
            "zone_respawns": int(s["zone_respawns"]),
            "zone_timeouts": int(s["zone_timeouts"]),
            "zone_link_failures": int(s["zone_link_failures"]),
            "zones_down": int(s["zones_down"]),
            "interim_results": int(s["interim_results"]),
            "requests_shed": int(s["requests_shed"]),
            "handoffs_rerouted": int(s["handoffs_rerouted"]),
            "by_zone": {
                zid: {
                    "results": int(z.summary["results"]),
                    "degraded": int(z.summary["degraded"]),
                    "mean_error_m": round(z.mean_error_m, 9),
                }
                for zid, z in report.zones.items()
            },
        }
        return _json.dumps(doc, sort_keys=True, indent=2)

    lines = [
        f"zone chaos session ({args.env} x {args.zones} zones, "
        f"record preset {args.preset}, zone preset {args.zone_preset} "
        f"on {args.zone_id}, seed {args.seed}, {args.duration:g}s):",
        f"  fault plan           {len(plan)} fault(s): {plan.describe()}",
        f"  requests             {s['requests']:.0f}"
        f"  (answered {s['results']:.0f}, failed {s['failed']:.0f})",
        f"  availability         {100 * s['availability']:.2f}%",
        f"  supervision          crashes {s['zone_crashes']:.0f}, "
        f"respawns {s['zone_respawns']:.0f}, timeouts "
        f"{s['zone_timeouts']:.0f}, link failures "
        f"{s['zone_link_failures']:.0f}",
        f"  degraded service     interim {s['interim_results']:.0f}, "
        f"shed {s['requests_shed']:.0f}, rerouted handoffs "
        f"{s['handoffs_rerouted']:.0f}, zones down at end "
        f"{s['zones_down']:.0f}",
    ]
    for zid, zreport in report.zones.items():
        zs = zreport.summary
        lines.append(
            f"  zone {zid:8s} results {zs['results']:.0f} "
            f"(degraded {zs['degraded']:.0f}), "
            f"mean error {zreport.mean_error_m:.3f} m"
        )
    return "\n".join(lines)


def _calibration_witness(report, plan, summary) -> dict:
    """The chaos command's calibration section: a determinism witness.

    Per-reader *injected* bias (what the fault plan's drift models put
    in, evaluated at session end) against the corrector's *estimated*
    bias (what came out), plus the quarantine/readmit event log. Pure
    functions of the seed — the CI smoke job byte-diffs repeat runs.
    """
    from .faults import CalibrationDriftFault

    end_s = float(summary.get("session_end_s", 0.0))
    injected: dict[str, float] = {}
    for fault in plan:
        if isinstance(fault, CalibrationDriftFault):
            injected[fault.reader_id] = (
                injected.get(fault.reader_id, 0.0) + fault.bias_at(end_s)
            )
    bias_table = {}
    for key in sorted(summary):
        if key.startswith("calibration_bias_") and key.endswith("_db"):
            reader = key[len("calibration_bias_"):-len("_db")]
            bias_table[reader] = {
                "injected_db": round(injected.get(reader, 0.0), 6),
                "estimated_db": round(float(summary[key]), 6),
            }
    return {
        "bias_table": bias_table,
        "events": [dict(e) for e in report.calibration_events],
        "quarantined": int(summary.get("calibration_quarantined", 0)),
        "transitions": int(summary.get("calibration_transitions", 0)),
    }


def _cmd_chaos(args) -> str:
    import json as _json

    from .experiments.scenarios import paper_scenario
    from .faults import FaultPlan, ReaderOutageFault, chaos_preset
    from .service import LocalizationService, ServiceConfig

    if args.zones is not None:
        return _cmd_chaos_zones(args)
    plan = chaos_preset(args.preset, seed=args.seed)
    if args.outage_reader is not None:
        plan = plan.with_fault(
            ReaderOutageFault(
                reader_id=args.outage_reader,
                start_s=args.outage_start,
                duration_s=args.outage_duration,
            )
        )
    calibration = None
    if args.calibrate:
        from .calibration import CalibrationPolicy

        calibration = CalibrationPolicy()
    config = ServiceConfig(
        query_interval_s=args.query_interval,
        allow_partial=not args.strict,
        calibration=calibration,
    )
    scenario = paper_scenario(args.env, n_trials=1, base_seed=args.seed)
    with _graceful_sigterm():
        report = LocalizationService(config).run(
            scenario, args.duration, fault_plan=plan
        )
    s = report.summary
    reasons: dict[str, int] = {}
    for result in report.results:
        if result.reason is not None:
            reasons[result.reason] = reasons.get(result.reason, 0) + 1

    if args.json:
        # Deterministic fields only (no wall-clock): same seed ⇒ the CI
        # smoke job must see byte-identical output across repeat runs.
        doc = {
            "env": args.env,
            "seed": args.seed,
            "preset": args.preset,
            "duration_s": args.duration,
            "faults": len(plan),
            "requests": int(s["requests"]),
            "results": int(s["results"]),
            "failed": int(s["failed"]),
            "degraded": int(s["degraded"]),
            "degraded_reasons": {k: reasons[k] for k in sorted(reasons)},
            "availability": round(s["availability"], 9),
            "mean_error_m": round(report.mean_error_m, 9),
            "records_streamed": int(s["records_streamed"]),
            "fault_records": {
                key.removeprefix("fault_records_"): int(value)
                for key, value in sorted(s.items())
                if key.startswith("fault_records_")
            },
            "frames_received": int(s["frames_received"]),
            "frames_dropped": int(s["frames_dropped"]),
            "breaker_transitions": int(s["breaker_transitions"]),
        }
        if args.calibrate:
            doc["calibration"] = _calibration_witness(report, plan, s)
        return _json.dumps(doc, sort_keys=True, indent=2)

    lines = [
        f"chaos session ({args.env}, preset {args.preset}, seed {args.seed}, "
        f"{args.duration:g}s):",
        f"  fault plan           {len(plan)} fault(s): {plan.describe()}",
        f"  requests             {s['requests']:.0f}"
        f"  (answered {s['results']:.0f}, failed {s['failed']:.0f})",
        f"  availability         {100 * s['availability']:.2f}%",
        f"  degraded             {s['degraded']:.0f} "
        f"({100 * s['degraded_fraction']:.1f}%)"
        + (f"  by reason: {reasons}" if reasons else ""),
        f"  fault records        seen {s.get('fault_records_seen', 0):.0f}, "
        f"dropped {s.get('fault_records_dropped', 0):.0f}, "
        f"modified {s.get('fault_records_modified', 0):.0f}, "
        f"delayed {s.get('fault_records_delayed', 0):.0f}",
        f"  frames               received {s['frames_received']:.0f}, "
        f"dropped {s['frames_dropped']:.0f}",
        f"  breaker transitions  {s['breaker_transitions']:.0f} "
        f"(open readers at end: {s['open_readers']:.0f})",
        f"  mean error           {report.mean_error_m:.3f} m "
        f"over {len(report.errors_m)} ground-truth results",
    ]
    if args.calibrate:
        cal = _calibration_witness(report, plan, s)
        lines.append(
            f"  calibration          {cal['transitions']} trust "
            f"transition(s), {cal['quarantined']} tag(s) quarantined at end"
        )
        for reader, row in cal["bias_table"].items():
            lines.append(
                f"    bias {reader:<12} injected {row['injected_db']:+7.3f} dB"
                f"  estimated {row['estimated_db']:+7.3f} dB"
            )
        for event in cal["events"]:
            lines.append(
                f"    t={event['t']:6.1f}s  {event['event']:<10} {event['tag']}"
            )
    return "\n".join(lines)


def _cmd_trace(args) -> str | tuple[str, int]:
    from .obs import (
        TraceWriter,
        Tracer,
        canonical_logical_json,
        diff_documents,
        format_summary,
        read_trace,
    )

    if args.trace_command == "record":
        from .experiments.scenarios import paper_scenario
        from .service import LocalizationService, ServiceConfig

        config = ServiceConfig(query_interval_s=args.query_interval)
        scenario = paper_scenario(args.env, n_trials=1, base_seed=args.seed)
        with TraceWriter(
            args.out,
            meta={
                "env": args.env,
                "seed": args.seed,
                "duration_s": args.duration,
            },
        ) as writer:
            tracer = Tracer(sink=writer.sink)
            report = LocalizationService(config).run(
                scenario, args.duration, tracer=tracer
            )
        return (
            f"recorded {writer.spans_written} root spans "
            f"({tracer.spans_recorded} spans total) over "
            f"{len(report.results)} served results -> {args.out}"
        )
    if args.trace_command == "summary":
        header, docs = read_trace(args.path)
        return format_summary(header, docs, top=args.top)
    if args.trace_command == "canon":
        _, docs = read_trace(args.path)
        return canonical_logical_json(docs)
    # diff
    _, docs_a = read_trace(args.a)
    _, docs_b = read_trace(args.b)
    diffs = diff_documents(
        docs_a, docs_b, logical=not args.wall, max_diffs=args.max_diffs
    )
    if not diffs:
        view = "full" if args.wall else "logical"
        return f"traces agree ({len(docs_a)} root spans, {view} view)"
    lines = [f"traces diverge ({len(diffs)} difference(s) shown):"]
    lines += [f"  {d}" for d in diffs]
    return "\n".join(lines), 1


def _cmd_heatmap(args) -> str:
    from .analysis import format_heatmap, spatial_error_map
    from .core.soft import SoftVIREEstimator
    from .geometry.placement import paper_testbed_grid
    from .rf.environments import environment_by_name

    grid = paper_testbed_grid()
    estimators = {
        "landmarc": lambda: LandmarcEstimator(),
        "vire": lambda: VIREEstimator(grid, VIREConfig(target_total_tags=900)),
        "softvire": lambda: SoftVIREEstimator(grid),
    }
    emap = spatial_error_map(
        environment_by_name(args.env),
        grid,
        estimators[args.estimator](),
        resolution=args.resolution,
        n_trials=args.trials,
        base_seed=args.seed,
        pad_m=0.5,
    )
    return format_heatmap(emap)


_COMMANDS = {
    "figure": _cmd_figure,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "loadtest": _cmd_loadtest,
    "track": _cmd_track,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "heatmap": _cmd_heatmap,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Handlers return either a string (printed, exit 0) or a
    ``(text, code)`` pair (``trace diff`` exits 1 on divergence).
    :class:`~repro.exceptions.ReproError` becomes one ``error:`` line on
    stderr and exit code 2; :class:`SystemExit` (argparse usage errors,
    ``serve --kill-at``'s code 17) propagates unchanged.
    """
    args = build_parser().parse_args(argv)
    try:
        out = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text, code = out if isinstance(out, tuple) else (out, 0)
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
