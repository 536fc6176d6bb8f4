"""Tests for the decode-phase overhaul.

Covers the layers the overhaul added to the decode path:

* the batched union-find growth arena is bit-identical to the per-shot
  reference loop it replaced (``batched=False``), row for row;
* the sparse <=2-defect fast path (closed-form table lookups shared by
  MWPM and union-find through ``BatchDecoder._decode_unique_rows``) is
  certified against the full decoders on exhaustive enumerations;
* MWPM's cross-call cluster memo serves bit-identical rows, and
  ``EngineResult`` is float-exactly invariant across worker counts;
* the shared-memory ``collect`` transport returns exactly the serial
  concatenation of the per-shard samples, keeps its tables valid after
  the engine closes, and leaks no ``/dev/shm`` segments.

The vectorized ``_unmask_rows`` expansion of uint64 mask words is
regression-tested against a per-bit loop, up to three words.
"""

import gc
import itertools
import os

import numpy as np
import pytest

from repro.core.cache import clear_caches
from repro.decoder.base import _unmask_rows
from repro.decoder.engine import DecodingEngine, make_decoder
from repro.decoder.graph import DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.union_find import UnionFindDecoder
from repro.noise.dem import extract_dem
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit, transversal_cnot_experiment

from oracles import frame_v1


@pytest.fixture(scope="module")
def d3_setup():
    """d=3 memory circuit, its graph, and a sampled syndrome batch."""
    circuit = memory_circuit(3, 3, 0.004)
    graph = DecodingGraph.from_dem(extract_dem(circuit))
    detectors, observables = frame_v1.sample(circuit, 400, np.random.default_rng(19))
    return circuit, graph, detectors.astype(np.uint8), observables


def _unique_rows(detectors):
    return np.unique(detectors, axis=0)


def _sparse_rows(num_detectors, max_defects=2):
    """Every syndrome with 0, 1, or 2 defects, as a dense uint8 batch."""
    rows = [np.zeros(num_detectors, dtype=np.uint8)]
    for i in range(num_detectors):
        row = np.zeros(num_detectors, dtype=np.uint8)
        row[i] = 1
        rows.append(row)
    if max_defects >= 2:
        for i, j in itertools.combinations(range(num_detectors), 2):
            row = np.zeros(num_detectors, dtype=np.uint8)
            row[i] = row[j] = 1
            rows.append(row)
    return np.stack(rows)


class TestBatchedUnionFind:
    @pytest.mark.parametrize("distance", [3, 5])
    def test_arena_bit_identical_to_reference(self, distance):
        circuit = memory_circuit(distance, distance, 0.003)
        graph = DecodingGraph.from_dem(extract_dem(circuit))
        detectors, _ = frame_v1.sample(circuit, 600, np.random.default_rng(23))
        unique = _unique_rows(detectors.astype(np.uint8))
        batched = UnionFindDecoder(graph)
        arena = batched._decode_unique(unique)
        reference = np.stack(
            [batched._decode_reference(row) for row in unique]
        )
        assert np.array_equal(arena, reference)

    def test_batched_flag_selects_reference_loop(self, d3_setup):
        _, graph, detectors, _ = d3_setup
        unique = _unique_rows(detectors)
        per_shot = UnionFindDecoder(graph, batched=False)
        batched = UnionFindDecoder(graph)
        assert np.array_equal(
            per_shot._decode_unique(unique), batched._decode_unique(unique)
        )

    def test_scalar_decode_matches_reference(self, d3_setup):
        _, graph, detectors, _ = d3_setup
        batched = UnionFindDecoder(graph)
        row = next(r for r in detectors if r.any())
        assert np.array_equal(
            batched.decode(row), batched._decode_reference(row)
        )


class TestUnmaskRows:
    @pytest.mark.parametrize("num_obs", [1, 7, 62, 64, 130])
    def test_matches_per_bit_loop(self, num_obs):
        rng = np.random.default_rng(31)
        words = -(-num_obs // 64)
        masks = rng.integers(
            0, np.iinfo(np.uint64).max, size=(64, words), dtype=np.uint64,
            endpoint=True,
        )
        expected = np.zeros((masks.shape[0], num_obs), dtype=np.uint8)
        for i, row in enumerate(masks):
            mask = sum(int(word) << (64 * w) for w, word in enumerate(row))
            for bit in range(num_obs):
                expected[i, bit] = (mask >> bit) & 1
        assert np.array_equal(_unmask_rows(masks, num_obs), expected)

    def test_zero_observables(self):
        out = _unmask_rows(np.zeros((5, 1), dtype=np.uint64), 0)
        assert out.shape == (5, 0)


class TestSparseFastPath:
    """The <=2-defect closed forms must equal the full decoders exactly."""

    def test_mwpm_exhaustive_two_defect_certification(self, d3_setup):
        _, graph, _, _ = d3_setup
        decoder = MWPMDecoder(graph)
        rows = _sparse_rows(graph.num_detectors)
        assert decoder._sparse_tables() is not None
        fast = decoder._decode_unique_rows(rows)
        full = decoder._decode_unique(rows)
        assert np.array_equal(fast, full)

    def test_union_find_exhaustive_certification(self, d3_setup):
        _, graph, _, _ = d3_setup
        decoder = UnionFindDecoder(graph)
        rows = _sparse_rows(graph.num_detectors)
        assert decoder._sparse_tables() is not None
        fast = decoder._decode_unique_rows(rows)
        full = decoder._decode_unique(rows)
        assert np.array_equal(fast, full)

    def test_multiword_mwpm_two_defect_certification(self):
        # The sequential decoder's control graph carries one pseudo-
        # observable per target detector (> 64 at d=5): two mask words.
        builder = transversal_cnot_experiment(5, 6, 0.004, [1, 2])
        sequential = make_decoder(
            "sequential",
            extract_dem(builder.circuit),
            detector_meta=builder.detector_meta,
        )
        decoder = sequential._control_decoder
        assert decoder.num_observables > 64
        rows = _sparse_rows(decoder.num_detectors)
        assert decoder._sparse_tables() is not None
        fast = decoder._decode_unique_rows(rows)
        full = decoder._decode_unique(rows)
        assert np.array_equal(fast, full)

    def test_per_shot_union_find_opts_out(self, d3_setup):
        _, graph, _, _ = d3_setup
        assert UnionFindDecoder(graph, batched=False)._sparse_tables() is None


class TestClusterCache:
    def test_repeat_decode_bit_identical(self, d3_setup):
        """MWPM's cross-call cluster memo never changes a decoded row."""
        _, graph, detectors, _ = d3_setup
        packed = np.packbits(_unique_rows(detectors), axis=1)
        decoder = MWPMDecoder(graph)
        cold = decoder.decode_packed(packed, graph.num_detectors)
        assert decoder._cluster_cache
        warm = decoder.decode_packed(packed, graph.num_detectors)
        fresh = MWPMDecoder(graph).decode_packed(packed[::-1], graph.num_detectors)
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, fresh[::-1])


class TestEngineInvariance:
    def test_engine_results_invariant_under_workers(self, d3_setup):
        """workers=1 vs workers=4: float-exact EngineResults."""
        circuit, _, _, _ = d3_setup
        results = {}
        for workers in (1, 4):
            clear_caches()
            with DecodingEngine(
                circuit, "mwpm", shard_shots=256, workers=workers
            ) as engine:
                results[workers] = engine.run(2000, seed=5)
        assert results[1] == results[4], results


class TestSharedMemoryTransport:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_collect_equals_serial_sample_packed(self, d3_setup, workers):
        """collect() == the per-child sample_packed calls, concatenated."""
        circuit, _, _, _ = d3_setup
        with DecodingEngine(
            circuit, "mwpm", shard_shots=128, workers=workers
        ) as engine:
            det_shm, obs_shm = engine.collect(1000, seed=17)
        sim = FrameSimulator(circuit)
        children = np.random.SeedSequence(17).spawn(8)
        parts = [
            sim.sample_packed(size, rng=np.random.default_rng(child))
            for size, child in zip([128] * 7 + [104], children)
        ]
        assert np.array_equal(det_shm, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(obs_shm, np.concatenate([p[1] for p in parts]))

    def test_tables_survive_engine_close(self, d3_setup):
        circuit, _, _, _ = d3_setup
        engine = DecodingEngine(circuit, "mwpm", shard_shots=128, workers=2)
        detectors, observables = engine.collect(500, seed=17)
        engine.close()
        del engine
        gc.collect()
        assert detectors.shape[0] == 500
        assert int(detectors.sum()) >= 0 and int(observables.sum()) >= 0
        # A derived view keeps the segment alive through the base chain.
        tail = detectors[400:]
        del detectors
        gc.collect()
        assert tail.shape[0] == 100
        assert int(tail.sum()) >= 0

    def test_no_dev_shm_leak(self, d3_setup):
        circuit, _, _, _ = d3_setup
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        gc.collect()
        before = set(os.listdir("/dev/shm"))
        with DecodingEngine(circuit, "mwpm", shard_shots=128) as engine:
            detectors, observables = engine.collect(400, seed=17)
            del detectors, observables
        gc.collect()
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked

    def test_zero_shots(self, d3_setup):
        circuit, _, _, _ = d3_setup
        with DecodingEngine(circuit, "mwpm") as engine:
            detectors, observables = engine.collect(0, seed=17)
        assert detectors.shape[0] == 0 and observables.shape[0] == 0
