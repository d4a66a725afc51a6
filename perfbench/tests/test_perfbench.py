"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Sessions run as subprocesses on shortened workloads (``--duration``), so
the suite takes about a minute.
"""

from __future__ import annotations

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Shortened runs of each workload (simulated seconds).
SHORT = {"serve-env3": 4.0, "load-env1-burst": 6.0, "zones4-failover": 8.0}


def session(workload: str, seed: int, trace: int, tmp_path) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "session.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--workdir", str(tmp_path), "--duration", str(SHORT[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_main(argv, monkeypatch) -> tuple[int, dict]:
    monkeypatch.setattr(run, "MIN_SESSIONS", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_witness_equals_untraced(workload, tmp_path):
    plain = session(workload, 7, 0, tmp_path)
    traced = session(workload, 7, 1, tmp_path)
    assert traced["digest"] == plain["digest"]
    assert traced["answers"] == plain["answers"] > 0
    assert traced["mean_error_m"] == plain["mean_error_m"]
    assert traced["probes_missing"] == []
    assert os.path.getsize(
        tmp_path / f"spans-{workload}-7.jsonl"
    ) > 0


def test_layer_placement_matches_the_design(tmp_path):
    serve = session("serve-env3", 3, 1, tmp_path)["layers"]
    zones = session("zones4-failover", 3, 1, tmp_path)["layers"]
    assert serve["runtime.ckpt_appends"] == 0
    assert serve["zones.respawns"] == 0
    assert zones["runtime.ckpt_appends"] > 0
    assert zones["runtime.ckpt_bytes"] > 0
    assert zones["zones.respawns"] == 1
    assert zones["zones.handoffs"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace, monkeypatch):
    spec = benchmark_json()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    code, result = run_main(
        ["--workload", "serve-env3", "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        monkeypatch,
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_perturbed_answer_trips_the_gate(tmp_path, monkeypatch):
    outcome = workloads.load_env1_burst(
        0, str(tmp_path), duration_s=SHORT["load-env1-burst"]
    )
    witness = copy.deepcopy(outcome.witness)
    witness["results"][0]["position"][0] += 1e-9
    perturbed = workloads.Outcome(**{**outcome.__dict__, "witness": witness})
    assert perturbed.digest != outcome.digest

    record = {
        "workload": "load-env1-burst", "seed": 0, "trace": 0,
        "digest": outcome.digest, "answers": outcome.answers,
        "offered": outcome.offered, "failed": 0, "shed": 0, "degraded": 0,
        "mean_error_m": outcome.mean_error_m,
        "answer_samples": workloads.MIN_ANSWERS, "answer_calls": [],
    }
    pins = {"load-env1-burst": {"0": {"digest": perturbed.digest}}}
    assert run.check([record], pins)
    assert not run.check([record], {})
    moved = dict(record, digest=perturbed.digest, trace=1)
    assert run.check([record, moved], {})

    # End to end: a pin the program does not reproduce fails the run.
    real = run.load_pins()
    wrong = copy.deepcopy(real)
    pin = wrong.setdefault("serve-env3", {}).setdefault("0", {})
    pin["digest"] = "0" * 64
    monkeypatch.setattr(run, "load_pins", lambda: wrong)
    code, result = run_main(
        ["--workload", "serve-env3", "--seed", "0", "--seconds", "0"],
        monkeypatch,
    )
    assert code == 1
    assert result["correct"] is False


def test_seed_changes_schedule_and_witness(tmp_path):
    from repro.loadtest import LoadProfile, generate_schedule

    a, b = (
        generate_schedule(LoadProfile(process="burst", seed=s)).digest()
        for s in (0, 1)
    )
    assert a != b
    for workload in sorted(workloads.WORKLOADS):
        first = session(workload, 0, 0, tmp_path)
        second = session(workload, 1, 0, tmp_path)
        assert first["digest"] != second["digest"], workload


def test_missing_probe_target_reports_zero(monkeypatch):
    import repro.service.cache as cache_module

    monkeypatch.delattr(cache_module, "InterpolationCache")
    tracer = probes.LayerTracer().install()
    try:
        assert "service.cache_many" not in tracer.installed
        layers = tracer.metrics()
    finally:
        tracer.restore()
    assert layers["service.cache_calls"] == 0
    assert layers["service.cache_hit_ratio"] == 0.0


def test_weighted_quantile_charges_every_answer():
    calls = [(5.0, 1), (1.0, 98), (9.0, 1)]
    assert probes.weighted_quantile(calls, 0.50) == 1.0
    assert probes.weighted_quantile(calls, 0.99) == 5.0
    assert probes.weighted_quantile(calls, 1.0) == 9.0
