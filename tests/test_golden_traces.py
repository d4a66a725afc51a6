"""Golden-trace regression tests: byte-stable pipeline outputs.

Every fixture under ``tests/golden/`` stores coordinates and thresholds
as IEEE-754 hex strings and weight matrices as SHA-256 digests, so these
tests fail on a *single ULP* of numerical drift anywhere in the
estimation pipeline. The scalar path must reproduce each trace exactly,
and the batch engine must reproduce the scalar path exactly — the
engine's bitwise-identity contract, pinned to disk.

Fixtures are regenerated (only on intentional numerical changes) with::

    PYTHONPATH=src python -m tests.regen_golden
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ReproError

from .regen_golden import (
    BUILDERS,
    GOLDEN_DIR,
    build_chaos_trace,
    build_masked_trace,
    build_paper_trace,
    build_report_capacity,
    build_report_schedule,
    build_trace_fig6,
    build_trace_serve,
    build_zones_roaming,
    chaos_result_docs,
    masked_readings,
    paper_estimator,
    paper_readings,
    run_chaos_session,
)


def _load(name: str) -> dict:
    path = GOLDEN_DIR / name
    if not path.exists():  # pragma: no cover - repo always ships fixtures
        pytest.fail(
            f"golden fixture {name} missing; run "
            "`PYTHONPATH=src python -m tests.regen_golden`"
        )
    return json.loads(path.read_text())


class TestFixtureHygiene:
    def test_every_builder_has_a_fixture(self):
        for name in BUILDERS:
            assert (GOLDEN_DIR / name).exists(), name

    def test_fixtures_are_canonical_json(self):
        """sort_keys + indent=2 + trailing newline — regen is the format."""
        for name in BUILDERS:
            raw = (GOLDEN_DIR / name).read_text()
            parsed = json.loads(raw)
            assert raw == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


class TestScalarMatchesGolden:
    """The scalar pipeline reproduces every stored trace byte-for-byte."""

    def test_paper_config(self):
        assert build_paper_trace() == _load("paper_config.json")

    def test_masked_reading(self):
        assert build_masked_trace() == _load("masked_reading.json")

    def test_chaos_preset(self):
        assert build_chaos_trace() == _load("chaos_preset.json")


def _batch_entries(est, readings):
    outcomes = est.estimate_outcomes(readings)
    out = []
    for outcome in outcomes:
        if isinstance(outcome, ReproError):
            out.append((type(outcome).__name__, str(outcome)))
        else:
            d = outcome.diagnostics
            out.append(
                (
                    float(outcome.position[0]).hex(),
                    float(outcome.position[1]).hex(),
                    float(d["threshold_db"]).hex(),
                    int(d["n_selected"]),
                    d.get("fallback"),
                )
            )
    return out


def _golden_entries(trace):
    out = []
    for tag in trace["tags"]:
        if "error" in tag:
            out.append((tag["error"], tag["message"]))
        else:
            out.append(
                (
                    tag["position_hex"][0],
                    tag["position_hex"][1],
                    tag["threshold_db_hex"],
                    tag["n_selected"],
                    tag["fallback"],
                )
            )
    return out


class TestBatchMatchesGolden:
    """The batch engine reproduces the stored traces byte-for-byte too."""

    def test_paper_config_batch(self):
        _, _, readings = paper_readings()
        est = paper_estimator()
        assert _batch_entries(est, readings) == _golden_entries(
            _load("paper_config.json")
        )

    def test_masked_reading_batch(self):
        _, _, readings = masked_readings()
        est = paper_estimator()
        assert _batch_entries(est, readings) == _golden_entries(
            _load("masked_reading.json")
        )

    def test_reversed_batch_order_is_irrelevant(self):
        """Batch results are per-tag functions — input order cannot leak."""
        _, _, readings = masked_readings()
        est = paper_estimator()
        forward = _batch_entries(est, readings)
        backward = _batch_entries(est, list(reversed(readings)))
        assert forward == list(reversed(backward))


class TestSpanTracesMatchGolden:
    """The logical span forest is as byte-stable as the numbers.

    These fixtures pin *decisions*, not just answers: ladder levels,
    degradation reasons, batch flush composition, cache hit/miss deltas
    and per-tag threshold selection. Any control-flow change in the
    pipeline shows up here as a readable tree diff rather than a silent
    behavioural shift.
    """

    def test_trace_serve(self):
        assert build_trace_serve() == _load("trace_serve.json")

    def test_trace_fig6(self):
        assert build_trace_fig6() == _load("trace_fig6.json")

    def test_tracing_does_not_perturb_results(self):
        """An enabled tracer must be answer-invisible: the traced chaos
        session reproduces the *untraced* golden results bit-exactly."""
        from repro.obs import Tracer

        report = run_chaos_session(tracer=Tracer())
        golden = _load("chaos_preset.json")
        assert chaos_result_docs(report) == golden["results"]

    def test_serve_tick_spans_are_stamped_at_their_tick(self):
        """A tick span's timestamp is the simulated time of the tick it
        processes: the stream never runs ahead of the session loop."""
        ticks = [
            root for root in build_trace_serve()["spans"]
            if root["name"] == "zone.tick"
        ]
        assert ticks, "the serve trace must contain tick spans"
        for tick in ticks:
            assert tick["t"] == tick["attrs"]["tick_s"], tick

    def test_serve_trace_pins_ladder_decisions(self):
        """Every serve span in the fixture carries the ladder attrs the
        profiler consumes (level/estimator, reason when degraded)."""
        trace = _load("trace_serve.json")
        serve_attrs = []

        def walk(doc):
            if doc["name"] == "service.serve":
                serve_attrs.append(doc.get("attrs", {}))
            for child in doc.get("children", []):
                walk(child)

        for root in trace["spans"]:
            walk(root)
        assert serve_attrs, "fixture must contain serve spans"
        for attrs in serve_attrs:
            if attrs.get("failed"):
                assert attrs["reason"] == "no_reading"
            else:
                assert attrs["level"] in (1, 2, 3, 4)
                assert isinstance(attrs["estimator"], str)


class TestLoadReportsMatchGolden:
    """The load harness and figure registry are pinned end to end.

    ``report_schedule.json`` freezes the traffic generator (every
    arrival of a two-zone burst profile); ``report_capacity.json``
    freezes the whole chain behind ``repro report --from``: harness →
    witness documents → every registered figure, capacity-model fit
    included. Wall-clock fields are excluded by construction
    (witness documents carry sim-clock facts only), so both fixtures
    are byte-stable across machines.
    """

    def test_report_schedule(self):
        assert build_report_schedule() == _load("report_schedule.json")

    def test_report_capacity(self):
        assert build_report_capacity() == _load("report_capacity.json")

    def test_capacity_fixture_covers_every_registered_figure(self):
        from repro.analysis.registry import figure_names

        fixture = _load("report_capacity.json")
        assert set(fixture["report"]["figures"]) == set(figure_names())

    def test_fixtures_carry_no_wall_clock_fields(self):
        for name in ("report_schedule.json", "report_capacity.json"):
            assert "wall" not in json.dumps(_load(name))


class TestZoneGatewayMatchesGolden:
    """The zone gateway's lockstep loop is pinned to disk.

    ``zones_roaming.json`` freezes a fault-free 2-zone run with one tag
    handed off from z0 to z1: every zone's answers and errors, the
    handoff's crossing time and carried estimate — all as IEEE-754 hex.
    Supervision, journaling and routing changes must leave it untouched.
    """

    def test_zones_roaming(self):
        assert build_zones_roaming() == _load("zones_roaming.json")
