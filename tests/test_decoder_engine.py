"""Tests for the batched Monte-Carlo decoding engine and decoder fixes.

Covers the registry, dedup-vs-naive prediction equality for all three
decoders, bit-identical results for 1 vs. N workers, streaming early-stop,
the MWPM odd-defect guard, and union-find zero-weight growth.
"""

import numpy as np
import pytest

from repro.decoder.base import BatchDecoder, Decoder
from repro.decoder.engine import (
    DecodingEngine,
    EngineResult,
    available_decoders,
    make_decoder,
    register_decoder,
)
from repro.decoder.graph import DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.sequential import SequentialCNOTDecoder
from repro.decoder.union_find import UnionFindDecoder
from repro.sim.frame import DetectorErrorModel, ErrorMechanism, FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment


@pytest.fixture(scope="module")
def memory_setup():
    """d=3 memory circuit with its DEM and a sampled syndrome batch."""
    circuit = memory_circuit(3, 3, 0.005)
    sim = FrameSimulator(circuit, rng=np.random.default_rng(7))
    dem = sim.detector_error_model()
    detectors, observables = sim.sample(300)
    return circuit, dem, detectors, observables


class TestRegistry:
    def test_builtin_decoders_listed(self):
        names = available_decoders()
        for expected in ("mwpm", "union_find", "sequential"):
            assert expected in names

    def test_make_decoder_types(self, memory_setup):
        _, dem, _, _ = memory_setup
        assert isinstance(make_decoder("mwpm", dem), MWPMDecoder)
        assert isinstance(make_decoder("union_find", dem), UnionFindDecoder)

    def test_decoders_satisfy_protocol(self, memory_setup):
        _, dem, _, _ = memory_setup
        assert isinstance(make_decoder("mwpm", dem), Decoder)
        assert isinstance(make_decoder("union_find", dem), Decoder)

    def test_unknown_name_rejected(self, memory_setup):
        _, dem, _, _ = memory_setup
        with pytest.raises(ValueError, match="unknown decoder"):
            make_decoder("nope", dem)

    def test_sequential_requires_metadata(self, memory_setup):
        _, dem, _, _ = memory_setup
        with pytest.raises(ValueError, match="detector_meta"):
            make_decoder("sequential", dem)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_decoder("mwpm", lambda dem, **kw: None)

    def test_sequential_builds_with_metadata(self):
        builder = transversal_cnot_experiment(3, 4, 1e-3, [1])
        dem = FrameSimulator(builder.circuit).detector_error_model()
        dec = make_decoder("sequential", dem, detector_meta=builder.detector_meta)
        assert isinstance(dec, SequentialCNOTDecoder)


class TestDedupEquality:
    """decode_batch with dedup must be bit-identical to the per-shot loop."""

    @pytest.mark.parametrize("name", ["mwpm", "union_find"])
    def test_memory_decoders(self, memory_setup, name):
        _, dem, detectors, _ = memory_setup
        decoder = make_decoder(name, dem)
        np.testing.assert_array_equal(
            decoder.decode_batch(detectors),
            decoder.decode_batch(detectors, dedup=False),
        )

    def test_sequential_decoder(self):
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        sim = FrameSimulator(builder.circuit, rng=np.random.default_rng(9))
        dem = sim.detector_error_model()
        decoder = make_decoder("sequential", dem, detector_meta=builder.detector_meta)
        detectors, _ = sim.sample(200)
        np.testing.assert_array_equal(
            decoder.decode_batch(detectors),
            decoder.decode_batch(detectors, dedup=False),
        )

    def test_random_syndromes(self, memory_setup):
        # Arbitrary (not just sampled) syndrome rows dedup identically.
        _, dem, _, _ = memory_setup
        rng = np.random.default_rng(21)
        syndromes = (rng.random((60, dem.num_detectors)) < 0.1).astype(np.uint8)
        decoder = make_decoder("mwpm", dem)
        np.testing.assert_array_equal(
            decoder.decode_batch(syndromes),
            decoder.decode_batch(syndromes, dedup=False),
        )

    def test_empty_batch(self, memory_setup):
        _, dem, _, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        out = decoder.decode_batch(np.zeros((0, dem.num_detectors), dtype=np.uint8))
        assert out.shape == (0, dem.num_observables)

    def test_zero_detector_circuit(self, memory_setup):
        # A (shots, 0) syndrome table must still yield one row per shot.
        _, dem, _, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        syndromes = np.zeros((5, 0), dtype=np.uint8)
        np.testing.assert_array_equal(
            decoder.decode_batch(syndromes),
            decoder.decode_batch(syndromes, dedup=False),
        )


class TestEngineDeterminism:
    def test_run_worker_invariance(self, memory_setup):
        circuit, _, _, _ = memory_setup
        results = []
        for workers in (1, 4):
            engine = DecodingEngine(
                circuit, "mwpm", shard_shots=128, workers=workers
            )
            res = engine.run(700, seed=3)
            results.append((res.shots, res.failures, res.shards))
        assert results[0] == results[1]

    def test_run_repeatable(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128)
        a = engine.run(500, seed=5)
        b = engine.run(500, seed=5)
        assert (a.shots, a.failures) == (b.shots, b.failures)

    def test_partial_last_shard(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128)
        res = engine.run(300, seed=5)
        assert res.shots == 300
        assert res.shards == 3

    def test_run_until_worker_invariance(self, memory_setup):
        circuit, _, _, _ = memory_setup
        results = []
        for workers in (1, 3):
            engine = DecodingEngine(
                circuit, "mwpm", shard_shots=64, workers=workers
            )
            res = engine.run_until(4, max_shots=20_000, seed=13)
            results.append((res.shots, res.failures, res.shards))
        assert results[0] == results[1]


class TestEarlyStop:
    def test_reaches_target_failures(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=64)
        res = engine.run_until(4, max_shots=50_000, seed=17)
        assert res.failures >= 4
        assert res.shots < 50_000
        assert res.shots == res.shards * 64

    def test_noiseless_hits_shot_cap(self):
        engine = DecodingEngine(memory_circuit(3, 3, 0.0), "mwpm", shard_shots=64)
        res = engine.run_until(1, max_shots=200, seed=1)
        assert res.failures == 0
        assert res.shots == 200

    def test_invalid_arguments_rejected(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm")
        with pytest.raises(ValueError):
            engine.run_until(0, max_shots=100)
        with pytest.raises(ValueError):
            engine.run_until(1, max_shots=0)
        with pytest.raises(ValueError):
            DecodingEngine(circuit, "mwpm", shard_shots=0)
        with pytest.raises(ValueError):
            DecodingEngine(circuit, "mwpm", workers=0)


class TestMWPMMatchers:
    def test_dp_agrees_with_blossom(self, memory_setup):
        _, dem, detectors, observables = memory_setup
        graph = DecodingGraph.from_dem(dem)
        dp_failures = int(
            (MWPMDecoder(graph).decode_batch(detectors)[:, 0] ^ observables[:, 0]).sum()
        )
        blossom_failures = int(
            (
                MWPMDecoder(graph, matcher="blossom").decode_batch(detectors)[:, 0]
                ^ observables[:, 0]
            ).sum()
        )
        # Both are exact MWPM; degenerate ties may flip individual shots,
        # but the failure counts must agree to within a sliver.
        assert abs(dp_failures - blossom_failures) <= 2

    def test_unknown_matcher_rejected(self, memory_setup):
        _, dem, _, _ = memory_setup
        with pytest.raises(ValueError, match="matcher"):
            MWPMDecoder(DecodingGraph.from_dem(dem), matcher="greedy")

    def test_large_defect_count_falls_back_to_blossom(self, memory_setup):
        # > _DP_MATCH_LIMIT defects exercises the blossom path in "auto".
        _, dem, _, _ = memory_setup
        decoder = MWPMDecoder(DecodingGraph.from_dem(dem))
        syndrome = np.zeros(dem.num_detectors, dtype=np.uint8)
        syndrome[:14] = 1
        assert decoder.decode(syndrome).shape == (dem.num_observables,)


class TestMWPMOddDefectGuard:
    def _boundaryless_graph(self) -> DecodingGraph:
        # A 3-detector chain with no boundary edges: an odd defect count
        # admits no perfect matching.
        graph = DecodingGraph(num_detectors=3, num_observables=1)
        graph.add_mechanism((0, 1), 0.01, frozenset())
        graph.add_mechanism((1, 2), 0.01, frozenset({0}))
        return graph

    def test_odd_defects_without_boundary_raise(self):
        decoder = MWPMDecoder(self._boundaryless_graph())
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode(np.array([1, 1, 1], dtype=np.uint8))

    def test_even_defects_without_boundary_decode(self):
        decoder = MWPMDecoder(self._boundaryless_graph())
        assert decoder.decode(np.array([1, 0, 1], dtype=np.uint8))[0] == 1

    def test_boundary_restores_odd_decoding(self):
        graph = self._boundaryless_graph()
        graph.add_mechanism((0,), 0.01, frozenset())
        decoder = MWPMDecoder(graph)
        # With a boundary path the odd syndrome decodes instead of raising.
        assert decoder.decode(np.array([1, 1, 1], dtype=np.uint8)).shape == (1,)


class TestUnionFindZeroWeight:
    def test_railed_probability_converges(self):
        # p = 0.5 rails the edge weight to ~4e-6; growth must not stall.
        dem = DetectorErrorModel(
            [
                ErrorMechanism(0.5, (0,), (0,)),
                ErrorMechanism(0.5, (0, 1), ()),
                ErrorMechanism(0.01, (1, 2), ()),
                ErrorMechanism(0.01, (2,), ()),
            ],
            3,
            1,
        )
        decoder = UnionFindDecoder(DecodingGraph.from_dem(dem))
        out = decoder.decode(np.array([1, 0, 0], dtype=np.uint8))
        assert out.shape == (1,)

    def test_convergence_error_reports_cluster_state(self, monkeypatch):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.01, (0,), (0,)), ErrorMechanism(0.01, (0, 1), ())],
            2,
            1,
        )
        decoder = UnionFindDecoder(DecodingGraph.from_dem(dem))
        # Sever the adjacency so defect 1 can never become valid.
        monkeypatch.setattr(decoder, "_adjacency", {})
        with pytest.raises(RuntimeError, match="invalid clusters"):
            decoder.decode(np.array([0, 1], dtype=np.uint8))


class TestEngineAnalysisIntegration:
    def test_any_observable_failure_mode(self):
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        engine = DecodingEngine(
            builder.circuit,
            "sequential",
            detector_meta=builder.detector_meta,
            observable=None,
            shard_shots=128,
        )
        res = engine.run(256, seed=3)
        assert res.shots == 256
        assert 0 <= res.failures <= 256

    def test_prebuilt_decoder_accepted(self, memory_setup):
        circuit, dem, _, _ = memory_setup
        decoder = make_decoder("union_find", dem)
        engine = DecodingEngine(circuit, decoder, shard_shots=128)
        res = engine.run(256, seed=3)
        assert res.shots == 256


class TestPackedPipeline:
    """The packed engine must agree bit for bit with the unpacked pipeline.

    The unpacked pipeline is replayed serially here: byte-per-bit
    ``FrameSimulator.sample`` + ``decode_batch`` over the engine's shard
    seeds.
    """

    @staticmethod
    def _unpacked_replay(engine, shots, seed):
        sim = FrameSimulator(engine.circuit)
        sizes = engine._shard_sizes(shots)
        children = np.random.SeedSequence(seed).spawn(len(sizes))
        failures = 0
        for size, child in zip(sizes, children):
            detectors, observables = sim.sample(
                size, rng=np.random.default_rng(child)
            )
            wrong = engine.decoder.decode_batch(detectors) ^ observables
            if engine.observable is None:
                failures += int(wrong.any(axis=1).sum())
            else:
                failures += int(wrong[:, engine.observable].sum())
        return EngineResult(shots=shots, failures=failures, shards=len(sizes))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_packed_matches_unpacked_engine(self, memory_setup, workers):
        circuit, _, _, _ = memory_setup
        with DecodingEngine(
            circuit, "mwpm", shard_shots=128, workers=workers
        ) as engine:
            res = engine.run(700, seed=3)
            assert res == self._unpacked_replay(engine, 700, 3)

    def test_packed_matches_unpacked_any_observable(self):
        builder = transversal_cnot_experiment(3, 4, 0.004, [1, 2])
        engine = DecodingEngine(
            builder.circuit,
            "sequential",
            detector_meta=builder.detector_meta,
            observable=None,
            shard_shots=128,
        )
        res = engine.run(256, seed=3)
        assert res.failures > 0
        assert res == self._unpacked_replay(engine, 256, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_uniform_weights_are_exact_counts(self, memory_setup, workers):
        circuit, _, _, _ = memory_setup
        with DecodingEngine(
            circuit, "mwpm", shard_shots=128, workers=workers
        ) as engine:
            for res in (
                engine.run(700, seed=3),
                engine.run_until(5, max_shots=5000, seed=4),
            ):
                assert res.failures > 0
                assert res.weighted_failures == float(res.failures)
                assert res.weighted_failures_sq == float(res.failures)
                assert res.weight_sum == float(res.shots)
                assert res.weight_sq_sum == float(res.shots)

    def test_decode_packed_matches_decode_batch(self, memory_setup):
        _, dem, detectors, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        packed = np.packbits(detectors, axis=1)
        np.testing.assert_array_equal(
            decoder.decode_packed(packed, dem.num_detectors),
            decoder.decode_batch(detectors),
        )
        np.testing.assert_array_equal(
            decoder.decode_packed(packed, dem.num_detectors, dedup=False),
            decoder.decode_batch(detectors, dedup=False),
        )

    def test_collect_matches_reference_sampling(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128)
        det_keys, obs_keys = engine.collect(300, seed=9)
        assert det_keys.shape == (300, (circuit.num_detectors + 7) // 8)
        root = np.random.SeedSequence(9)
        sim = FrameSimulator(circuit)
        parts = [
            sim.sample(size, rng=np.random.default_rng(child))[0]
            for size, child in zip([128, 128, 44], root.spawn(3))
        ]
        np.testing.assert_array_equal(
            np.unpackbits(det_keys, axis=1, count=circuit.num_detectors),
            np.concatenate(parts),
        )

    def test_collect_worker_invariance(self, memory_setup):
        circuit, _, _, _ = memory_setup
        tables = []
        for workers in (1, 2):
            with DecodingEngine(
                circuit, "mwpm", shard_shots=64, workers=workers
            ) as engine:
                tables.append(engine.collect(300, seed=21))
        np.testing.assert_array_equal(tables[0][0], tables[1][0])
        np.testing.assert_array_equal(tables[0][1], tables[1][1])


class TestMWPMDecomposition:
    """Cluster decomposition must stay exact and batch-invariant."""

    def test_decomposed_agrees_with_whole_syndrome_failures(self, memory_setup):
        _, dem, detectors, observables = memory_setup
        graph = DecodingGraph.from_dem(dem)
        whole = MWPMDecoder(graph, decompose=False).decode_batch(detectors)
        split = MWPMDecoder(graph).decode_batch(detectors)
        whole_failures = int((whole[:, 0] ^ observables[:, 0]).sum())
        split_failures = int((split[:, 0] ^ observables[:, 0]).sum())
        # Exact MWPM either way; degenerate ties may flip single shots.
        assert abs(whole_failures - split_failures) <= 2

    def test_batch_decode_matches_scalar_decode(self, memory_setup):
        _, dem, detectors, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        batch = decoder.decode_batch(detectors)
        scalar = np.stack([decoder.decode(row) for row in detectors[:100]])
        np.testing.assert_array_equal(scalar, batch[:100])

    def test_cluster_cache_reused(self, memory_setup):
        from repro.core.cache import clear_caches

        _, dem, detectors, _ = memory_setup
        decoder = make_decoder("mwpm", dem)
        # Earlier tests may have left these exact syndromes in the
        # cross-batch syndrome cache, which would satisfy the batch
        # before the cluster layer ever runs; start from a cold cache.
        clear_caches()
        first = decoder.decode_batch(detectors)
        assert len(decoder._cluster_cache) > 0
        again = decoder.decode_batch(detectors)
        np.testing.assert_array_equal(first, again)

    def test_cache_runaway_clear_mid_batch_recovers(self, memory_setup, monkeypatch):
        # A tiny cache limit forces wholesale clears *during* a batch;
        # composition must re-solve dropped clusters, not crash, and the
        # predictions must be unchanged.
        import repro.decoder.mwpm as mwpm_module

        _, dem, detectors, _ = memory_setup
        reference = MWPMDecoder(DecodingGraph.from_dem(dem)).decode_batch(detectors)
        monkeypatch.setattr(mwpm_module, "_CLUSTER_CACHE_LIMIT", 2)
        small_cache = MWPMDecoder(DecodingGraph.from_dem(dem))
        np.testing.assert_array_equal(
            small_cache.decode_batch(detectors), reference
        )
        assert len(small_cache._cluster_cache) <= 3

    def test_decompose_raises_on_unexplainable_syndrome(self):
        graph = DecodingGraph(num_detectors=3, num_observables=1)
        graph.add_mechanism((0, 1), 0.01, frozenset())
        graph.add_mechanism((1, 2), 0.01, frozenset({0}))
        decoder = MWPMDecoder(graph)  # decompose on (default)
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode(np.array([1, 1, 1], dtype=np.uint8))


class TestPersistentPool:
    def test_pool_survives_across_runs(self, memory_setup):
        circuit, _, _, _ = memory_setup
        with DecodingEngine(
            circuit, "mwpm", shard_shots=128, workers=2
        ) as engine:
            engine.run(256, seed=1)
            pool = engine._pool
            assert pool is not None
            engine.run(256, seed=2)
            assert engine._pool is pool  # reused, not respawned
            engine.run_until(1, max_shots=512, seed=3)
            assert engine._pool is pool
        assert engine._pool is None  # context exit released it

    def test_close_idempotent_and_restartable(self, memory_setup):
        circuit, _, _, _ = memory_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128, workers=2)
        first = engine.run(256, seed=7)
        engine.close()
        engine.close()
        again = engine.run(256, seed=7)  # pool respawns transparently
        assert (first.shots, first.failures) == (again.shots, again.failures)
        engine.close()


@pytest.mark.slow
class TestEngineSlow:
    """Larger-scale consistency runs, excluded from the tier-1 default."""

    def test_low_p_dedup_matches_naive_at_scale(self):
        circuit = memory_circuit(5, 6, 1e-3)
        sim = FrameSimulator(circuit, rng=np.random.default_rng(31))
        dem = sim.detector_error_model()
        decoder = make_decoder("mwpm", dem)
        detectors, _ = sim.sample(4000)
        np.testing.assert_array_equal(
            decoder.decode_batch(detectors),
            decoder.decode_batch(detectors, dedup=False),
        )

    def test_worker_invariance_d5(self):
        circuit = memory_circuit(5, 6, 2e-3)
        outcomes = []
        for workers in (1, 4):
            engine = DecodingEngine(
                circuit, "mwpm", shard_shots=512, workers=workers
            )
            res = engine.run(4096, seed=19)
            outcomes.append((res.shots, res.failures))
        assert outcomes[0] == outcomes[1]
