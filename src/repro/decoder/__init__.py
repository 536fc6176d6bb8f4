"""Decoders, the batched Monte-Carlo decoding engine, and error analysis.

Decoder stack
-------------

Every decoder satisfies the :class:`~repro.decoder.base.Decoder` protocol
(``decode`` one syndrome row, ``decode_batch`` many byte-per-bit rows,
``decode_packed`` many bit-packed rows, ``num_observables``) and inherits
:class:`~repro.decoder.base.BatchDecoder`, which deduplicates syndromes
once per batch -- bit-packed rows *are* the fixed-width dedup keys, so the
packed sampling pipeline hands its output straight to the decoder with no
pack/unpack round trip.  Implementations:

* :class:`MWPMDecoder` -- minimum-weight perfect matching ("mwpm"), with
  exact defect-cluster decomposition, a cross-shot cluster cache, and a
  vectorized subset-DP matcher on the batch path.
* :class:`UnionFindDecoder` -- cluster growth + peeling ("union_find").
* :class:`SequentialCNOTDecoder` -- correlated two-pass MWPM for
  transversal-CNOT circuits ("sequential"; needs ``detector_meta``).

Decoder registry
----------------

The quoted names above are keys in the engine's registry: build a decoder
from a detector error model with
``make_decoder("mwpm", dem)`` (or ``"sequential"`` plus
``detector_meta=...``), list names with :func:`available_decoders`, and
add your own with :func:`register_decoder`.  Experiment entry points
(:func:`run_decoding_experiment`, :func:`memory_logical_error`, ...) take
the registry name directly via their ``decoder=`` argument.

Monte-Carlo engine
------------------

:class:`DecodingEngine` drives throughput-oriented Monte-Carlo runs::

    engine = DecodingEngine(circuit, "mwpm", shard_shots=1024, workers=4)
    result = engine.run(100_000, seed=7)          # fixed shot count
    result = engine.run_until(100, 10**7, seed=7) # stream to 100 failures

Shots are split into fixed-size shards, each sampled from an independent
``SeedSequence.spawn`` child stream and decoded with dedup; shards are
distributed over the worker processes of one persistent
:class:`~repro.core.pool.WorkerPool`.  Every shard draws its shots from
one shot source -- the circuit's packed Pauli-frame sampler, or an
importance sampler (:mod:`repro.estimator.rare`) -- and every run returns
an :class:`EngineResult` (shots, failures, rate, ``std_error``, weighted
estimates).  The shard layout depends only on the seed and
``shard_shots``, so results are bit-identical for any worker count,
including under ``run_until`` early stopping (the stop rule is evaluated
on the shard-ordered prefix).  ``collect`` returns the sampled tables
themselves, written by the workers into shared memory
(:mod:`repro.decoder.transport`).
"""

from repro.decoder.analysis import (
    AlphaFit,
    MemoryFit,
    cnot_experiment_rate,
    eq4_prediction,
    fit_alpha,
    fit_memory_model,
    memory_logical_error,
    per_round_rate,
    run_decoding_experiment,
)
from repro.decoder.base import BatchDecoder, Decoder
from repro.decoder.engine import (
    DecodingEngine,
    EngineResult,
    available_decoders,
    make_decoder,
    register_decoder,
)
from repro.decoder.graph import BOUNDARY, DecodingGraph, Edge
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.sequential import SequentialCNOTDecoder
from repro.decoder.union_find import UnionFindDecoder

__all__ = [
    "AlphaFit",
    "BOUNDARY",
    "BatchDecoder",
    "Decoder",
    "DecodingEngine",
    "DecodingGraph",
    "Edge",
    "EngineResult",
    "MWPMDecoder",
    "MemoryFit",
    "SequentialCNOTDecoder",
    "UnionFindDecoder",
    "available_decoders",
    "cnot_experiment_rate",
    "eq4_prediction",
    "fit_alpha",
    "fit_memory_model",
    "make_decoder",
    "memory_logical_error",
    "per_round_rate",
    "register_decoder",
    "run_decoding_experiment",
]
