"""Tests of the benchmark harness itself, at smoke-test sizes.

Run with:  PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run as bench
import workloads
from repro.decoder.engine import DecodingEngine, EngineResult
from repro.estimator.rare import rare_engine
from repro.service.client import ServiceClient
from repro.sim.memory import memory_circuit
from repro.sim.periodic import circuit_fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))


def smoke(capsys, name, trace):
    run, context = bench.execute(name, seed=3, seconds=0.2, trace=trace, tiny=True)
    bench.report(name, run, context)
    lines = capsys.readouterr().out.strip().splitlines()
    return run, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_unit(capsys, name, trace):
    run, lines, result = smoke(capsys, name, trace)
    expected = workloads.LAYER_METRICS if trace else workloads.E2E_UNITS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {
        metric: {"value": result["metrics"][metric]["value"], "unit": unit}
        for metric, unit in expected.items()
    }
    assert result["correct"] and result["failed"] == 0, run.problems
    assert result["attempted"] >= 1
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
        assert f"{name} failed_frac 0 frac" in lines
        assert any(line.startswith(f"{name} setup_s ") for line in lines)
    else:
        assert 0.95 <= result["metrics"]["setup.accounted_frac"]["value"] <= 1.0
    context = json.loads(lines[0].split(" ", 1)[1])
    assert context["nproc"] == os.cpu_count()
    assert {"code_version", "python"} <= set(context["metadata"])


def test_benchmark_file_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    listed = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    assert listed("end_to_end") == workloads.E2E_UNITS
    assert listed("per_layer") == workloads.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(bench.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_changed_failure_count_is_counted(capsys, monkeypatch):
    """A wrong failure count from the engine fails the serial-replay check."""
    original = DecodingEngine.run

    def corrupted(self, shots, seed=0):
        result = original(self, shots, seed)
        return EngineResult(result.shots, result.failures + 1, result.shards)

    monkeypatch.setattr(DecodingEngine, "run", corrupted)
    run, lines, result = smoke(capsys, "uf_d11_pool", trace=True)
    assert result["failed"] >= 1 and not result["correct"]
    assert any("serial replay differs" in line for line in lines)
    assert f"uf_d11_pool failed_frac {run.failed_frac:.6g} frac" in lines


def test_changed_store_hit_body_is_counted(capsys, monkeypatch):
    seen = set()
    original = ServiceClient.estimate_raw

    def corrupted(self, scenario, **params):
        body = original(self, scenario, **params)
        key = workloads.request_key(scenario, params)
        if key in seen:
            body += b" "
        seen.add(key)
        return body

    monkeypatch.setattr(ServiceClient, "estimate_raw", corrupted)
    _, _, result = smoke(capsys, "service_analytic", trace=False)
    assert result["failed"] >= 1


def test_estimate_outside_reference_interval_is_counted(capsys, monkeypatch):
    spec = workloads.WORKLOADS["rare_uf_d7"]
    tiny = replace(spec.tiny, rate_interval=(0.5, 1.0))
    monkeypatch.setitem(workloads.WORKLOADS, "rare_uf_d7",
                        replace(spec, tiny=tiny))
    _, lines, result = smoke(capsys, "rare_uf_d7", trace=False)
    assert result["failed"] >= 1
    assert any("outside" in line for line in lines)


def test_staged_build_equals_library_builders():
    """The benchmark's stage-by-stage set-up builds what the library's
    one-call builders build."""
    spec = workloads.WORKLOADS["rare_uf_d7"].tiny
    run = workloads.measure.Run(seed=1, seconds=0.0, trace=False)
    setup = workloads.build_engine(spec, run, rep=0)
    try:
        reference = memory_circuit(spec.distance, spec.rounds, spec.p)
        assert circuit_fingerprint(setup.circuit) == circuit_fingerprint(reference)
        library = rare_engine(reference, spec.decoder,
                              min_failure_weight=spec.min_failure_weight,
                              shard_shots=spec.shard_shots)
        seed = 11
        assert setup.engine.run(2048, seed=seed) == library.run(2048, seed=seed)
        sizes = workloads.shard_sizes(2048, spec.shard_shots)
        assert workloads.matches(
            library.run(2048, seed=seed),
            workloads.replay(setup, np.random.SeedSequence(seed), sizes),
        )
    finally:
        setup.close()


def test_request_stream_is_seeded_and_half_repeats():
    def take(seed, count=2000):
        stream = workloads.request_stream(seed)
        return [workloads.request_key(*next(stream)) for _ in range(count)]

    first = take(5)
    assert first == take(5) and first != take(6)
    repeats = len(first) - len(set(first))
    assert 0.4 < repeats / len(first) < 0.6
    assert {f"{name}?" for name in workloads.PARAMETER_FREE} <= set(first[:20])


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uf_d11_pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
