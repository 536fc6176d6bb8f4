"""The three benchmark workloads, each with the reason it was chosen.

Every workload reports the same end-to-end metrics, so one comparison
rule covers them all:

* ``setup_s`` -- time from nothing to ready: importing the program plus
  the median of ``setups`` cold set-ups (caches are cleared before each);
* ``throughput_per_s`` -- units of work per second in the warm window:
  decoded shots for the Monte-Carlo workloads, requests for the service;
* ``latency_ms`` -- time of one operation a caller waits for (the
  "Operation" named in each workload's comment below);
* ``peak_rss_mb`` -- peak resident memory, pool children included.

The Monte-Carlo workloads report window totals: shots over the summed
time of the measured calls, and their mean latency (see
:func:`engine_e2e`); the service reports requests over their summed
latency and the median request.

Failed operations and failed correctness checks are counted against the
operations and checks attempted (``failed_frac``); they travel as the
result line's ``attempted`` and ``failed`` rather than as a metric, since
on correct code the fraction is 0.

The workload's own names for these numbers (``shots_per_s``,
``time_to_estimate_s``, ``request_p99_ms``, ...) are printed beside them.
A traced run (``--trace 1``) splits the work into layers named after the
``repro`` modules: ``sim``, ``noise``, ``decoder``, ``estimator``,
``service``; see :data:`LAYER_METRICS`.

Every measured operation draws a seed no earlier operation in the process
used (see :meth:`measure.Run.seeds`), so it decodes syndromes the decode
caches have not seen; ``decoder.cache_hit_frac`` shows what repeats remain.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import obs
from repro.core.cache import clear_caches
from repro.decoder.engine import DecodingEngine, make_decoder
from repro.estimator.rare import ImportanceSampler, suggested_inflation
from repro.noise.dem import extract_dem
from repro.noise.models import make_noise_model
from repro.service.client import ServiceClient, ServiceError
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit
from repro.sim.periodic import compile_program

import measure
from measure import MEASURED, TRACED, WARMUP, Run

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

with open(os.path.join(HERE, "reference.json")) as _handle:
    REFERENCE = json.load(_handle)

# Set-up stages, in the order they run; their spans account for set-up
# time.  Each becomes the per-layer metric ``<stage>_s`` and moves
# ``setup_s``: noise.extract_dem, sim.compile, decoder.build and
# decoder.engine.pool_start on uf_d11_pool; estimator.rare.sampler_build
# on rare_uf_d7; service.start on service_analytic.  The engines are
# pooled, so the first decode (lazy decoder tables) happens in the
# workers, inside pool_start.
SETUP_STAGES = (
    "setup.import",
    "sim.circuit_build",
    "noise.apply",
    "noise.extract_dem",
    "estimator.rare.sampler_build",
    "sim.compile",
    "decoder.build",
    "decoder.engine.pool_start",
    "service.start",
)

# Per-layer metrics every traced run reports, 0 where a workload does not
# reach the layer.  The comment says which end-to-end metric each should
# move, and on which workload.
LAYER_METRICS = {
    **{f"{name}_s": "s" for name in SETUP_STAGES},
    # Sum of the stage times over setup_s; 1 when the stages cover set-up.
    "setup.accounted_frac": "frac",
    # throughput_per_s and latency_ms on uf_d11_pool.  Busy seconds
    # summed over workers.
    "sim.sample_s": "s",
    "sim.sample_shots_per_s": "1/s",
    # throughput_per_s on uf_d11_pool, both metrics on rare_uf_d7.
    "decoder.decode_s": "s",
    "decoder.decode_shots_per_s": "1/s",
    # Work counts that explain decode cost: unique syndrome rows per shot,
    # syndrome-cache hits per lookup, defects per shot (from the keys).
    "decoder.unique_row_frac": "frac",
    "decoder.cache_hit_frac": "frac",
    "decoder.defects_per_shot": "count",
    # throughput_per_s on uf_d11_pool and rare_uf_d7: serial replay time
    # over workers x pool wall time.
    "decoder.engine.parallel_efficiency": "frac",
    # latency_ms on uf_d11_pool.
    "decoder.engine.collect_s": "s",
    "decoder.engine.collect_shots_per_s": "1/s",
    # Both metrics on rare_uf_d7: shots sampled past the stop per counted
    # shot (wasted work), sampler time, shots and time one estimate needs,
    # and the effective-sample-size fraction.
    "decoder.engine.shots_beyond_stop_frac": "frac",
    "estimator.rare.sample_s": "s",
    "estimator.rare.shots_to_target": "count",
    "estimator.rare.time_to_estimate_s": "s",
    "estimator.rare.ess_frac": "frac",
    # latency_ms on service_analytic: server-side time per request
    # (the rest of the client's latency is HTTP) and the store hit share.
    "service.request_server_s": "s",
    "service.store_hit_frac": "frac",
    # throughput_per_s and the request tail on service_analytic.
    "service.compute_s": "s",
    "service.request_p99_ms": "ms",
    "estimator.sweep.point_s": "s",
    # Measurement context: traced against untraced time per unit of work,
    # and the calibration kernel's time at the start of the run.
    "trace_overhead_frac": "frac",
    "run.calibration_ms": "ms",
}

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}


class _Noiseless:
    """Noise model that leaves the circuit clean, so the noise transform
    can be timed as its own stage (the result is the circuit
    ``memory_circuit`` builds with noise)."""

    def apply(self, circuit):
        return circuit


@dataclass(frozen=True)
class EngineSpec:
    """A memory experiment decoded through ``DecodingEngine``."""

    distance: int
    rounds: int
    p: float
    decoder: str
    workers: int
    batch_shots: int  # shots per measured run() / collect() call
    warm_shots: int  # warm-up shots: lazy tables, pool start
    setups: int  # cold set-ups per run; setup_s is their median
    max_failure_rate: float  # a batch failing more often is broken
    collect: bool = False
    shard_shots: int = 1024
    # Importance-sampled estimation (rare_uf_d7 only).
    min_failure_weight: int = 0
    target_rel_err: float = 0.0
    max_shots: int = 0
    rate_interval: Tuple[float, float] = (0.0, 1.0)  # estimate must lie inside
    shots_ref: int = 0  # reference shots-to-target (reference.json)


# -- Monte-Carlo set-up ---------------------------------------------------------


def build_engine(spec: EngineSpec, run: Run, rep: int):
    """Build circuit, noise, DEM, decoder and engine, one span each.

    The warm-up call that ends set-up pays lazy first-use work (pool
    start, the workers' decoder tables) on a seed no measured operation
    uses.
    """
    with obs.span("sim.circuit_build"):
        ideal = memory_circuit(
            spec.distance, spec.rounds, spec.p, noise=_Noiseless(), strict=False
        )
    with obs.span("noise.apply"):
        circuit = make_noise_model("uniform_depolarizing", p=spec.p).apply(ideal)
    with obs.span("noise.extract_dem"):
        dem = extract_dem(circuit)
    sampler = None
    if spec.target_rel_err:
        # rare_engine()'s steps, split so each can be timed.
        with obs.span("estimator.rare.sampler_build"):
            sampler = ImportanceSampler(
                dem, inflation=suggested_inflation(dem, spec.min_failure_weight)
            )
    else:
        with obs.span("sim.compile"):
            compile_program(circuit)
    with obs.span("decoder.build"):
        decoder = make_decoder(spec.decoder, dem)
    with obs.span("decoder.engine.pool_start"):
        engine = DecodingEngine(
            circuit,
            decoder,
            shard_shots=spec.shard_shots,
            workers=spec.workers,
            sampler=sampler,
        )
        engine.run(spec.warm_shots, seed=run.seeds(WARMUP, rep))
    return EngineSetup(engine, FrameSimulator(circuit), decoder, sampler, circuit)


def cold_setups(count: int, build: Callable[[int], object], run: Run):
    """Set up ``count`` times from cold caches; close all but the last.

    Returns (last built object, setup_s, per-stage span seconds of the
    median set-up).
    """
    reps: List[Tuple[float, List[dict]]] = []
    built = None
    for rep in range(count):
        if built is not None:
            built.close()
        clear_caches()
        mark = len(obs.trace_events())
        start = time.perf_counter()
        built = build(rep)
        wall = time.perf_counter() - start
        reps.append((wall, obs.trace_events()[mark:]))
    setup_s, stage_s = measure.median_setup(reps)
    stage_s["setup.import"] = run.import_s
    return built, run.import_s + setup_s, stage_s


def setup_layers(run: Run, setup_s: float, stage_s: Dict[str, float]) -> None:
    stages = {name: stage_s.get(name, 0.0) for name in SETUP_STAGES}
    for name, seconds in stages.items():
        run.layers[f"{name}_s"] = (seconds, "s")
    run.layers["setup.accounted_frac"] = (sum(stages.values()) / setup_s, "frac")


# -- serial replay ----------------------------------------------------------------


@dataclass
class Replay:
    """Sums a serial re-execution of an engine call's shards produces."""

    failures: int = 0
    weighted_failures: float = 0.0
    weighted_failures_sq: float = 0.0
    weight_sum: float = 0.0
    weight_sq_sum: float = 0.0
    shots: int = 0
    defects: int = 0
    seconds: float = 0.0


def shard_sizes(shots: int, shard_shots: int) -> List[int]:
    full, rest = divmod(shots, shard_shots)
    return [shard_shots] * full + ([rest] if rest else [])


def replay(setup: "EngineSetup", seed: np.random.SeedSequence,
           sizes: List[int]) -> Replay:
    """Re-run shards serially in this process, through the public sampler
    and decoder calls, with the engine's shard seeds (children of ``seed``
    in spawn order).  Sums accumulate in shard order, as the engine's do,
    so a correct engine matches them exactly."""
    circuit, sampler = setup.circuit, setup.sampler
    out = Replay()
    num_obs = circuit.num_observables
    for size, child in zip(sizes, seed.spawn(len(sizes))):
        rng = np.random.default_rng(child)
        start = time.perf_counter()
        if sampler is not None:
            det, obs_keys, log_weights = sampler.sample_weighted(size, rng)
            weights = np.exp(log_weights)
        else:
            det, obs_keys = setup.sim.sample_packed(size, rng=rng)
            weights = None
        predictions = setup.decoder.decode_packed(det, circuit.num_detectors)
        out.seconds += time.perf_counter() - start
        observed = np.unpackbits(obs_keys, axis=1, count=num_obs)
        wrong = (predictions[:, 0] ^ observed[:, 0]).astype(bool)
        failures = int(wrong.sum())
        out.failures += failures
        if weights is None:
            out.weighted_failures += float(failures)
            out.weighted_failures_sq += float(failures)
            out.weight_sum += float(size)
            out.weight_sq_sum += float(size)
        else:
            failing = weights[wrong]
            out.weighted_failures += float(failing.sum())
            out.weighted_failures_sq += float(np.square(failing).sum())
            out.weight_sum += float(weights.sum())
            out.weight_sq_sum += float(np.square(weights).sum())
        out.shots += size
        out.defects += int(np.unpackbits(det, axis=1).sum())
    return out


def matches(result, rep: Replay) -> bool:
    return (
        result.failures == rep.failures
        and result.shots == rep.shots
        and result.weighted_failures == rep.weighted_failures
        and result.weighted_failures_sq == rep.weighted_failures_sq
        and result.weight_sum == rep.weight_sum
        and result.weight_sq_sum == rep.weight_sq_sum
    )


# -- engine windows -------------------------------------------------------------


@dataclass
class Op:
    """One measured engine operation."""

    seed: tuple  # SeedSequence entropy, to rebuild the shard seeds
    result: object
    run_s: float
    collect_s: float = 0.0


def batch_window(spec: EngineSpec, run: Run, setup: "EngineSetup",
                 stream: int, seconds: float) -> List[Op]:
    """Closed loop of ``run(batch_shots)`` calls (and, with ``collect``,
    a ``collect(batch_shots)`` after each) for ``seconds``."""
    engine = setup.engine
    det_width = (setup.circuit.num_detectors + 7) // 8
    sizes = shard_sizes(spec.batch_shots, spec.shard_shots)
    ops: List[Op] = []
    for index in measure.closed_loop(seconds):
        seed = run.seeds(stream, 2 * index)
        with obs.span("decoder.engine.run"):
            start = time.perf_counter()
            result = engine.run(spec.batch_shots, seed=seed)
            run_s = time.perf_counter() - start
        run.work(len(sizes))
        run.check(
            result.shots == spec.batch_shots and result.shards == len(sizes),
            f"run({spec.batch_shots}) returned {result.shots} shots",
        )
        run.check(
            result.failures <= spec.max_failure_rate * result.shots,
            f"failure rate {result.failures}/{result.shots} above "
            f"{spec.max_failure_rate}",
        )
        op = Op(tuple(seed.entropy), result, run_s)
        if spec.collect:
            collect_seed = run.seeds(stream, 2 * index + 1)
            with obs.span("decoder.engine.collect"):
                start = time.perf_counter()
                det, obs_keys = engine.collect(spec.batch_shots, seed=collect_seed)
                op.collect_s = time.perf_counter() - start
            run.work(len(sizes))
            # The transport must deliver exactly what a serial sample of
            # the same shard seed gives; the first shard is checked
            # always, every shard in traced runs.
            children = np.random.SeedSequence(collect_seed.entropy).spawn(len(sizes))
            checked = len(sizes) if run.trace else 1
            row = 0
            same = det.shape == (spec.batch_shots, det_width)
            for size, child in list(zip(sizes, children))[:checked]:
                ref_det, ref_obs = setup.sim.sample_packed(
                    size, rng=np.random.default_rng(child)
                )
                same = same and np.array_equal(det[row:row + size], ref_det)
                same = same and np.array_equal(obs_keys[row:row + size], ref_obs)
                row += size
            run.check(bool(same), "collect() tables differ from a serial sample")
            del det, obs_keys
        ops.append(op)
    return ops


def estimate_window(spec: EngineSpec, run: Run, engine, stream: int,
                    seconds: float) -> List[Op]:
    """Closed loop of ``run_until_rel_error`` estimates for ``seconds``
    (the estimate in progress at the deadline completes)."""
    low, high = spec.rate_interval
    ops: List[Op] = []
    for index in measure.closed_loop(seconds):
        seed = run.seeds(stream, index)
        with obs.span("estimator.rare.estimate"):
            start = time.perf_counter()
            result = engine.run_until_rel_error(
                spec.target_rel_err, max_shots=spec.max_shots, seed=seed
            )
            elapsed = time.perf_counter() - start
        run.work(result.shards)
        run.check(result.shots < spec.max_shots,
                  f"estimate hit the {spec.max_shots}-shot cap")
        run.check(
            low <= result.weighted_rate <= high,
            f"estimate {result.weighted_rate:.3g} outside [{low:.3g}, {high:.3g}]",
        )
        ops.append(Op(tuple(seed.entropy), result, elapsed))
    return ops


def engine_e2e(spec: EngineSpec, ops: List[Op]) -> Dict[str, Tuple[float, str]]:
    """End-to-end numbers of a window, plus the workload's own names."""
    if spec.target_rel_err:
        # A run holds only a few estimates, and each one's time depends on
        # how many shots its seed needs (the count spreads ~5x between
        # seeds).  So throughput pools all estimates, and latency is the
        # time of one estimate at the committed reference shot count; the
        # shots actually needed are the per-layer shots_to_target.
        rate = sum(op.result.shots for op in ops) / sum(op.run_s for op in ops)
        return {
            "throughput_per_s": (rate, "1/s"),
            "latency_ms": (1e3 * spec.shots_ref / rate, "ms"),
            "time_to_estimate_s": (statistics.median(op.run_s for op in ops), "s"),
        }
    # Totals over the window rather than a median or low percentile of the
    # operations: the shared host runs the same code up to ~2x slower for
    # seconds to minutes at a time, and a total follows the share of the
    # window spent slow where an order statistic jumps between the two
    # speeds.  The median operation is printed beside them.
    run_s = sum(op.run_s for op in ops)
    totals = [op.run_s + op.collect_s for op in ops]
    rate = spec.batch_shots * len(ops) / run_s
    out = {
        "throughput_per_s": (rate, "1/s"),
        "shots_per_s": (rate, "1/s"),
        "latency_ms": (1e3 * statistics.fmean(totals), "ms"),
        "latency_p50_ms": (1e3 * statistics.median(totals), "ms"),
    }
    if spec.collect:
        out["collect_shots_per_s"] = (
            spec.batch_shots * len(ops) / sum(op.collect_s for op in ops), "1/s")
    return out


@dataclass
class EngineSetup:
    """A ready engine and the pieces a serial replay needs."""

    engine: DecodingEngine
    sim: FrameSimulator
    decoder: object
    sampler: Optional[ImportanceSampler]
    circuit: object

    def close(self) -> None:
        self.engine.close()


def run_engine_workload(spec: EngineSpec, run: Run) -> None:
    setup = None
    try:
        setup, setup_s, stage_s = cold_setups(
            spec.setups, lambda rep: build_engine(spec, run, rep), run)
        if spec.target_rel_err:
            def window(stream, seconds):
                return estimate_window(spec, run, setup.engine, stream, seconds)
        else:
            def window(stream, seconds):
                return batch_window(spec, run, setup, stream, seconds)
        if not run.trace:
            e2e = engine_e2e(spec, window(MEASURED, run.seconds))
            e2e["setup_s"] = (setup_s, "s")
            for key, value in e2e.items():
                (run.e2e if key in E2E_UNITS else run.named)[key] = value
            return
        setup_layers(run, setup_s, stage_s)
        obs.disable_tracing()
        untraced = engine_e2e(spec, window(MEASURED, run.seconds / 2))
        obs.enable_tracing()
        before = measure.counter_totals()
        ops = window(TRACED, run.seconds / 2)
        delta = measure.counter_delta(before, measure.counter_totals())
        traced = engine_e2e(spec, ops)
        run.layers["trace_overhead_frac"] = (
            untraced["throughput_per_s"][0] / traced["throughput_per_s"][0] - 1.0,
            "frac",
        )
        engine_layers(spec, run, setup, ops, delta)
    finally:
        if setup is not None:
            setup.close()
        run.e2e["peak_rss_mb"] = (measure.peak_rss_mb(children=spec.workers), "MB")


def engine_layers(spec: EngineSpec, run: Run, setup: EngineSetup, ops: List[Op],
                  delta: Dict[str, float]) -> None:
    """Per-layer numbers of a traced window, and the serial-replay check."""
    # One untimed shard first: this process has not decoded yet when the
    # engine ran in a pool, and its lazy decoder tables are not replay work.
    replay(setup, run.seeds(WARMUP, spec.setups), [spec.shard_shots])
    replays = []
    for op in ops:
        # A run_until* result counts whole shards up to the stop (only a
        # capped run ends on a partial one), so its shot count gives them.
        shots = op.result.shots if spec.target_rel_err else spec.batch_shots
        rep = replay(setup, np.random.SeedSequence(op.seed),
                     shard_sizes(shots, spec.shard_shots))
        run.check(matches(op.result, rep),
                  f"serial replay differs: engine {op.result}, replay {rep}")
        replays.append(rep)
    replay_s = sum(rep.seconds for rep in replays)
    run_s = sum(op.run_s for op in ops)
    collect_s = sum(op.collect_s for op in ops)
    collect_shots = spec.batch_shots * len(ops) if spec.collect else 0
    sample_s = delta.get("repro_engine_sample_seconds_total", 0.0)
    decode_s = delta.get("repro_engine_decode_seconds_total", 0.0)
    decoded = delta.get("repro_decode_shots_total", 0.0)
    hits = delta.get("repro_syndrome_cache_hits_total", 0.0)
    misses = delta.get("repro_syndrome_cache_misses_total", 0.0)
    engine_shots = sum(op.result.shots + op.result.shots_beyond_stop for op in ops)
    layers = {
        "decoder.decode_s": decode_s,
        "decoder.decode_shots_per_s": measure.ratio(decoded, decode_s),
        "decoder.unique_row_frac": measure.ratio(
            delta.get("repro_decode_unique_total", 0.0), decoded),
        "decoder.cache_hit_frac": measure.ratio(hits, hits + misses),
        "decoder.defects_per_shot": measure.ratio(
            sum(rep.defects for rep in replays), sum(rep.shots for rep in replays)),
        # Serial replay time over the pool's worker-seconds; 1 is perfect.
        "decoder.engine.parallel_efficiency": replay_s / (spec.workers * run_s),
        "decoder.engine.collect_s": collect_s,
        "decoder.engine.collect_shots_per_s": measure.ratio(collect_shots, collect_s),
    }
    if spec.target_rel_err:
        counted = sum(op.result.shots for op in ops)
        layers.update({
            "estimator.rare.sample_s": sample_s,
            "estimator.rare.shots_to_target": statistics.median(
                op.result.shots for op in ops),
            "estimator.rare.ess_frac": statistics.median(
                op.result.ess / op.result.shots for op in ops),
            "estimator.rare.time_to_estimate_s": statistics.median(
                op.run_s for op in ops),
            "decoder.engine.shots_beyond_stop_frac": measure.ratio(
                sum(op.result.shots_beyond_stop for op in ops), counted),
        })
    else:
        layers.update({
            "sim.sample_s": sample_s,
            "sim.sample_shots_per_s": measure.ratio(
                engine_shots + collect_shots, sample_s),
        })
    for name, value in layers.items():
        run.layers[name] = (value, LAYER_METRICS[name])


# -- service ----------------------------------------------------------------------

# Scenarios without parameters: the first request computes, later ones hit
# the store.  Parametrised ones get fresh values (store misses).
PARAMETER_FREE = ("fig2", "fig12", "fig14", "headline", "table1", "table2")


def _fresh_request(rng: random.Random, used: set) -> Tuple[str, dict]:
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            request = ("fig6b", {"target_error": 10 ** rng.uniform(-14, -9)})
        elif kind == 1:
            request = ("fig13", {"target_error": 10 ** rng.uniform(-14, -9)})
        elif kind == 2:
            request = ("fig11", {"target_ccz_error": 10 ** rng.uniform(-13, -9)})
        else:
            request = ("fig11_idle", {"max_distance": rng.randrange(51, 400)})
        key = request_key(*request)
        if key not in used:
            used.add(key)
            return request


def request_key(scenario: str, params: dict) -> str:
    return scenario + "?" + "&".join(f"{k}={params[k]!r}" for k in sorted(params))


def request_stream(seed: int):
    """Seeded analytic request mix: half repeat an earlier request (store
    hits), half carry fresh parameter values, and the parameter-free
    scenarios come among the first requests."""
    rng = random.Random(seed)
    used: set = set()
    distinct: List[Tuple[str, dict]] = []
    free_slots = dict(zip(rng.sample(range(3 * len(PARAMETER_FREE)), len(PARAMETER_FREE)),
                          PARAMETER_FREE))
    for index in itertools.count():
        if index in free_slots:
            request = (free_slots[index], {})
            distinct.append(request)
        elif distinct and rng.random() < 0.5:
            # Uniform over distinct earlier requests, so no early request
            # snowballs into a seed-dependent share of the mix.
            request = distinct[rng.randrange(len(distinct))]
        else:
            request = _fresh_request(rng, used)
            distinct.append(request)
        yield request


def service_window(run: Run, client, requests, seconds: float, bodies: dict):
    """Closed loop, one client: send the next request when the previous
    one returned.  Returns (latencies of all, of store misses, of hits)."""
    latencies, miss, hit = [], [], []
    for _ in measure.closed_loop(seconds):
        scenario, params = next(requests)
        key = request_key(scenario, params)
        start = time.perf_counter()
        try:
            body = client.estimate_raw(scenario, **params)
        except ServiceError as exc:
            run.work(1, 1, f"{key}: HTTP {exc.status}")
            continue
        elapsed = time.perf_counter() - start
        run.work(1)
        latencies.append(elapsed)
        if key in bodies:
            hit.append(elapsed)
            run.check(body == bodies[key], f"{key}: store-hit body differs")
        else:
            miss.append(elapsed)
            bodies[key] = body
    return latencies, miss, hit


class RunningService:
    """A ``python -m repro serve`` process on a fresh store, and a client.

    The server runs in its own process, as a deployment would, so the
    benchmark's client does not share its interpreter lock.
    """

    def __init__(self, store_dir: str, workers: int) -> None:
        os.makedirs(store_dir)
        port_file = os.path.join(store_dir, "port")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--store-dir", store_dir,
             "--port-file", port_file],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            port = self._wait_for_port(port_file)
            self.client = ServiceClient(f"http://127.0.0.1:{port}")
            self.client.healthz()
        except BaseException:
            self.close()
            raise

    def _wait_for_port(self, port_file: str, timeout_s: float = 60.0) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited with {self.proc.returncode}")
            try:
                with open(port_file) as handle:
                    return int(handle.read())
            except (OSError, ValueError):
                time.sleep(0.005)
        raise TimeoutError("service did not report its port")

    def scrape(self) -> Dict[str, float]:
        """The server's ``/metrics`` samples summed over label sets; the
        HTTP histogram counts ``/estimate`` requests only."""
        out: Dict[str, float] = {}
        for family in obs.parse_prometheus(self.client.metrics()).values():
            for name, labels, value in family["samples"]:
                if labels.get("endpoint", "estimate") == "estimate":
                    out[name] = out.get(name, 0.0) + value
        return out

    def close(self) -> None:
        """Stop the server the way an operator would (SIGINT) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_service(spec: "ServiceSpec", store_dir: str) -> RunningService:
    with obs.span("service.start"):
        return RunningService(store_dir, spec.workers)


def run_service_workload(spec: "ServiceSpec", run: Run) -> None:
    store_root = tempfile.mkdtemp(prefix="service-")
    service = None
    try:
        service, setup_s, stage_s = cold_setups(
            spec.setups,
            lambda rep: start_service(spec, os.path.join(store_root, str(rep))),
            run,
        )
        client = service.client
        requests = request_stream(run.seed)
        bodies: Dict[str, bytes] = {}
        if not run.trace:
            latencies, _, _ = service_window(run, client, requests, run.seconds, bodies)
            rate = len(latencies) / sum(latencies)
            p50 = 1e3 * measure.percentile(latencies, 50)
            run.e2e["setup_s"] = (setup_s, "s")
            run.e2e["throughput_per_s"] = (rate, "1/s")
            run.e2e["latency_ms"] = (p50, "ms")
            run.named.update({
                "requests_per_s": (rate, "1/s"),
                "request_p50_ms": (p50, "ms"),
                "request_p99_ms": (1e3 * measure.percentile(latencies, 99), "ms"),
                "requests": (float(len(latencies)), "count"),
            })
            return
        setup_layers(run, setup_s, stage_s)
        obs.disable_tracing()
        untraced, _, _ = service_window(run, client, requests, run.seconds / 2, bodies)
        obs.enable_tracing()
        jobs_before = client.stats()["jobs"]
        before = service.scrape()
        latencies, miss, hit = service_window(
            run, client, requests, run.seconds / 2, bodies)
        delta = measure.counter_delta(before, service.scrape())
        jobs = client.stats()["jobs"]
        hits = jobs["store_hits"] - jobs_before["store_hits"]
        computed = jobs["computed"] - jobs_before["computed"]
        layers = {
            "service.request_server_s": measure.ratio(
                delta.get("repro_http_request_seconds_sum", 0.0),
                delta.get("repro_http_request_seconds_count", 0.0)),
            "service.store_hit_frac": measure.ratio(hits, hits + computed),
            # Extra client-visible time of a store miss over a hit: the
            # scenario computation plus the store write.
            "service.compute_s": (statistics.fmean(miss) - statistics.fmean(hit)
                                  if miss and hit else 0.0),
            "service.request_p99_ms": 1e3 * measure.percentile(latencies, 99),
            "estimator.sweep.point_s": measure.ratio(
                delta.get("repro_sweep_point_seconds_sum", 0.0),
                delta.get("repro_sweep_point_seconds_count", 0.0)),
            "trace_overhead_frac": (statistics.fmean(latencies)
                                    / statistics.fmean(untraced) - 1.0),
        }
        for name, value in layers.items():
            run.layers[name] = (value, LAYER_METRICS[name])
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(store_root, ignore_errors=True)
        run.e2e["peak_rss_mb"] = (measure.peak_rss_mb(children=1), "MB")


@dataclass(frozen=True)
class ServiceSpec:
    workers: int
    setups: int


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable
    spec: object
    tiny: object  # the same workload at smoke-test size


UF_D11_POOL = EngineSpec(
    distance=11, rounds=12, p=1e-3, decoder="union_find", workers=2,
    batch_shots=8192, warm_shots=2048, setups=2, max_failure_rate=0.01,
    collect=True,
)
RARE_UF_D7 = EngineSpec(
    distance=7, rounds=3, p=5e-4, decoder="union_find", workers=2,
    batch_shots=0, warm_shots=2048, setups=3, max_failure_rate=1.0,
    min_failure_weight=4, target_rel_err=0.2, max_shots=1_000_000,
    rate_interval=tuple(REFERENCE["rare_uf_d7"]["rate_interval"]),
    shots_ref=REFERENCE["rare_uf_d7"]["shots_to_target"],
)
SERVICE_ANALYTIC = ServiceSpec(workers=2, setups=3)

# There is no MWPM workload: at d=11 its networkx decoder build alone takes
# ~30 s, so a run takes ~50 s, and its calls slow by up to ~2x while the
# shared host is busy.  Ten such runs span several of the host's busy and
# idle phases, and spread by more than a 25% bound.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "uf_d11_pool",
            # Sampling and the union-find arena split the run; the pool and
            # the per-shard metric-delta merge run on every shard, and
            # collect() goes through the shared-memory transport (ROADMAP
            # item 2).  DEM extraction is most of set-up.  Syndromes are
            # almost all unique, so dedup and the syndrome cache are
            # bypassed; MWPM is not touched.  Operation: run(8192) then
            # collect(8192) on 2 workers.
            run_engine_workload, UF_D11_POOL,
            replace(UF_D11_POOL, distance=3, rounds=3, p=2e-3, batch_shots=512,
                    warm_shots=256, shard_shots=128, setups=2, max_failure_rate=0.1),
        ),
        Workload(
            "rare_uf_d7",
            # Importance-sampled estimation bypasses the circuit sampler
            # entirely: estimator.rare draws from an inflated proposal, so
            # union-find sees dense syndromes (its per-shot fallback) and
            # run_until_rel_error streams waves of 2 shards, sampling past
            # the stop.  Operation: one estimate to 20% relative error,
            # timed at the reference shot count (see engine_e2e).
            run_engine_workload, RARE_UF_D7,
            replace(RARE_UF_D7, distance=3, p=2e-3, min_failure_weight=2,
                    warm_shots=256, shard_shots=256, setups=2,
                    rate_interval=tuple(REFERENCE["tiny"]["rate_interval"]),
                    shots_ref=REFERENCE["tiny"]["shots_to_target"]),
        ),
        Workload(
            "service_analytic",
            # The only workload that reaches the HTTP service, the job
            # engine, the result store and the analytic half through
            # estimator.registry / sweep; no Monte-Carlo layer runs.  One
            # client in a closed loop; about half the requests repeat an
            # earlier one (store hits).  Operation: one /estimate request.
            run_service_workload, SERVICE_ANALYTIC,
            replace(SERVICE_ANALYTIC, setups=2),
        ),
    )
}
