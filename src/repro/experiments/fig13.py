"""Fig. 13: sensitivity to decoder quality (alpha) and coherence time.

(a) Space-time volume vs the decoding factor alpha: re-choose the code
distance for the effective threshold at each alpha; even dropping the
one-round threshold from 0.86% to 0.6% costs only ~50% more volume.
(b) Volume vs coherence time: flat until ~1 s, then accelerating.

:func:`decoder_tradeoff_monte_carlo` backs the Fig. 13(a) narrative with
measured numbers: it runs the *same* sampled syndromes through every
registered decoder via the batched decoding engine, exhibiting the
accuracy gap (e.g. union-find vs MWPM) that the analytic alpha sweep
abstracts into a single parameter.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from repro.algorithms.factoring import FactoringParameters, estimate_factoring
from repro.core.idle import optimal_storage_period_volume
from repro.core.logical_error import required_distance
from repro.core.params import ArchitectureConfig
from repro.decoder.analysis import paired_failure_counts
from repro.decoder.engine import DecodingEngine, EngineResult, make_decoder
from repro.estimator.registry import Scenario, ScenarioResult, register_scenario
from repro.estimator.sweep import grid, sweep
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit

DEFAULT_ALPHAS = (1.0 / 12, 1.0 / 6, 1.0 / 3, 1.0 / 2, 2.0 / 3)
DEFAULT_COHERENCE_TIMES = (0.3, 1.0, 3.0, 10.0, 30.0, 100.0)


def _alpha_point(point: dict, target_error: float, base: ArchitectureConfig) -> dict:
    """Volume (Mq-days) at one decoding-factor grid point."""
    error = base.error.rescaled(alpha=point["alpha"])
    distance = required_distance(target_error, error, 1.0)
    params = FactoringParameters(code_distance=distance)
    config = base.rescaled(error=error)
    est = estimate_factoring(params, config)
    return {
        "volume_mq_days": est.physical_qubits * est.runtime_seconds / 86400.0 / 1e6,
        "code_distance": distance,
    }


def volume_vs_alpha(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    target_error: float = 1e-12,
    base: ArchitectureConfig = ArchitectureConfig(),
    jobs: int = 1,
) -> Dict[float, float]:
    """Space-time volume (Mqubit-days) vs decoding factor."""
    records = sweep(
        partial(_alpha_point, target_error=target_error, base=base),
        grid(alpha=tuple(alphas)),
        jobs=jobs,
    )
    return {r["alpha"]: r["volume_mq_days"] for r in records}


def _coherence_point(point: dict, base: ArchitectureConfig) -> dict:
    """Volume (Mq-days) at one coherence-time grid point."""
    physical = base.physical.rescaled(coherence_time=point["coherence_time"])
    period = optimal_storage_period_volume(base.error, physical).period
    config = base.rescaled(physical=physical, storage_se_period=period)
    est = estimate_factoring(config=config)
    # Storage density scales with the SE work per stored qubit: charge
    # the extra SE visits as extra effective storage footprint.
    storage_penalty = max(1.0, (8e-3 / period))
    volume = est.physical_qubits * storage_penalty * est.runtime_seconds
    return {
        "volume_mq_days": volume / 86400.0 / 1e6,
        "storage_se_period": period,
    }


def volume_vs_coherence(
    coherence_times: Sequence[float] = DEFAULT_COHERENCE_TIMES,
    base: ArchitectureConfig = ArchitectureConfig(),
    jobs: int = 1,
) -> Dict[float, float]:
    """Volume vs coherence time; the storage SE period re-optimizes.

    Shorter coherence forces denser storage SE (more volume) and higher
    idle noise; below ~1 s the cost accelerates (Fig. 13(b)).
    """
    records = sweep(
        partial(_coherence_point, base=base),
        grid(coherence_time=tuple(coherence_times)),
        jobs=jobs,
    )
    return {r["coherence_time"]: r["volume_mq_days"] for r in records}


def decoder_tradeoff_monte_carlo(
    distance: int = 3,
    rounds: int = 3,
    p: float = 0.004,
    shots: int = 2000,
    seed: int = 41,
    decoders: Sequence[str] = ("mwpm", "mwpm_uniform", "union_find"),
    workers: int = 1,
    target_failures: Optional[int] = None,
    noise=None,
) -> Dict[str, EngineResult]:
    """Measured logical error per decoder on one memory experiment.

    Every decoder decodes *the same* noise realizations (a paired
    comparison), so the rate ratio between a fast decoder and MWPM is the
    Monte-Carlo counterpart of the alpha penalty swept analytically in
    :func:`volume_vs_alpha`.  Serially (``workers=1``, no
    ``target_failures``) the syndromes are sampled exactly once through
    the packed pipeline (:meth:`DecodingEngine.collect`) and every
    decoder consumes the identical bit-packed tables; with ``workers>1``
    each decoder streams through its own sharded engine run instead --
    resampling identical shard streams from the common seed -- so the
    decode work (the dominant cost) parallelizes too.

    Note: setting ``target_failures`` makes each decoder stop at its own
    shot count, so failure *counts* are no longer paired -- compare
    ``rate`` (failures per shot) in that mode, not raw counts.

    ``noise`` selects the circuit noise model (instance or registry name);
    the default decoder list pairs DEM-weighted MWPM against the
    uniform-weight baseline graph and union-find, so the table doubles as
    a weighted-vs-uniform ablation under any model.
    """
    circuit = memory_circuit(distance, rounds, p, noise=noise)
    # Extract the DEM once (the dominant setup cost) and share it across
    # all decoders.
    dem = FrameSimulator(circuit).detector_error_model()
    out: Dict[str, EngineResult] = {}
    if target_failures is not None or workers > 1:
        for name in decoders:
            with DecodingEngine(
                circuit, make_decoder(name, dem), workers=workers
            ) as engine:
                if target_failures is not None:
                    out[name] = engine.run_until(
                        target_failures,
                        max_shots=shots,
                        seed=np.random.SeedSequence(seed),
                    )
                else:
                    out[name] = engine.run(
                        shots, seed=np.random.SeedSequence(seed)
                    )
        return out
    shard_shots = 1024
    counts = paired_failure_counts(
        circuit,
        {name: name for name in decoders},
        shots,
        seed=np.random.SeedSequence(seed),
        dem=dem,
        shard_shots=shard_shots,
    )
    shards = -(-shots // shard_shots)
    return {
        name: EngineResult(shots=shots, failures=failures, shards=shards)
        for name, failures in counts.items()
    }


def threshold_drop_cost(base: ArchitectureConfig = ArchitectureConfig()) -> float:
    """Volume ratio when the one-round threshold drops 0.86% -> 0.6%.

    Paper Fig. 13(a): about a 50% increase.  alpha = 2/3 gives
    p_eff = 1%/(1 + 2/3) = 0.6%.
    """
    curve = volume_vs_alpha(alphas=(1.0 / 6, 2.0 / 3), base=base)
    return curve[2.0 / 3] / curve[1.0 / 6]


# -- scenario ------------------------------------------------------------------


def _build_fig13(jobs: int = 1, target_error: float = 1e-12) -> ScenarioResult:
    base = ArchitectureConfig()
    alpha_records = sweep(
        partial(_alpha_point, target_error=target_error, base=base),
        grid(alpha=DEFAULT_ALPHAS),
        jobs=jobs,
    )
    coherence_records = sweep(
        partial(_coherence_point, base=base),
        grid(coherence_time=DEFAULT_COHERENCE_TIMES),
        jobs=jobs,
    )
    records = tuple(
        [{"kind": "alpha", **r} for r in alpha_records]
        + [{"kind": "coherence", **r} for r in coherence_records]
    )
    return ScenarioResult(
        scenario="fig13",
        records=records,
        metadata={"target_error": target_error},
    )


def _render_fig13(result: ScenarioResult) -> str:
    lines = []
    alpha_curve = {
        r["alpha"]: r["volume_mq_days"]
        for r in result.records
        if r["kind"] == "alpha"
    }
    for alpha, vol in sorted(alpha_curve.items()):
        lines.append(f"  alpha {alpha:.3f}: {vol:8.1f} Mq*days")
    coherence_curve = {
        r["coherence_time"]: r["volume_mq_days"]
        for r in result.records
        if r["kind"] == "coherence"
    }
    for t, vol in sorted(coherence_curve.items()):
        lines.append(f"  T_coh {t:6.1f} s: {vol:8.1f} Mq*days")
    return "\n".join(lines)


def _lint_fig13():
    """The decoder-tradeoff memory circuit at its default parameters."""
    return {"memory_d3": memory_circuit(3, 3, 0.004)}


register_scenario(Scenario(
    name="fig13",
    description="volume sensitivity to decoding factor and coherence time (Fig. 13)",
    build=_build_fig13,
    render=_render_fig13,
    order=70,
    lint_circuits=_lint_fig13,
))
