"""Exactness of the union-find per-shot fallback and its row counter.

The arena flags rows whose round-synchronous result it cannot certify
(risky live-live merges, and grown cycles whose correction depends on the
spanning tree) and re-decodes them through the per-shot reference loop.
That loop was tuned for speed; these tests hold it, and the whole
arena + fallback path, bit for bit to a frozen copy of the loop as it was
before (``tests/oracles/union_find_v1.py``), on importance-sampled
batches dense enough to produce both kinds of flagged row.  They also pin
``repro_uf_rows_total``, the arena-vs-fallback row split.
"""

import numpy as np
import pytest

from oracles.union_find_v1 import ReferenceUnionFind
from repro.decoder.base import _unique_packed_rows, _unpack_rows
from repro.decoder.engine import make_decoder
from repro.decoder.graph import DecodingGraph
from repro.decoder.union_find import UnionFindDecoder
from repro.estimator.rare import (
    ImportanceSampler,
    rare_engine,
    suggested_inflation,
)
from repro.noise.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from repro.obs import REGISTRY
from repro.sim.memory import memory_circuit

# (distance, rounds, p, min_failure_weight) of the importance-sampled
# batches; the inflation suggested for these weights makes multi-defect
# clusters common.
BATCHES = {3: (3, 3, 2e-3, 2), 5: (5, 3, 1e-3, 3), 7: (7, 3, 5e-4, 4)}


def _sampled_batch(distance, shots=512, seed=5):
    d, rounds, p, weight = BATCHES[distance]
    dem = extract_dem(memory_circuit(d, rounds, p))
    sampler = ImportanceSampler(dem, inflation=suggested_inflation(dem, weight))
    det, _, _ = sampler.sample_weighted(shots, np.random.default_rng(seed))
    first, _ = _unique_packed_rows(det)
    return dem, _unpack_rows(det[first], dem.num_detectors)


def _arena_flags(decoder, syndromes):
    """(masks, flagged, merge-flagged, cycle-flagged) of one arena chunk.

    Merge flags are set while growing, cycle flags by the peel-side
    certificate; a spy around ``_peel_forest`` tells them apart.
    """
    kinds = {}
    peel_forest = decoder._peel_forest

    def spy(*args):
        flagged = args[-1]
        kinds["merge"] = flagged.copy()
        out = peel_forest(*args)
        kinds["cycle"] = flagged & ~kinds["merge"]
        return out

    decoder._peel_forest = spy
    try:
        masks, flagged = decoder._arena(syndromes, decoder._edge_arrays())
    finally:
        del decoder._peel_forest
    return masks, flagged, kinds["merge"], kinds["cycle"]


@pytest.fixture(scope="module")
def batches():
    out = {}
    for distance in BATCHES:
        dem, syndromes = _sampled_batch(distance)
        decoder = make_decoder("union_find", dem)
        out[distance] = (decoder, syndromes, _arena_flags(decoder, syndromes))
    return out


class TestTunedFallbackOracle:
    @pytest.mark.parametrize("distance", sorted(BATCHES))
    def test_fallback_matches_frozen_reference(self, batches, distance):
        decoder, syndromes, _ = batches[distance]
        oracle = ReferenceUnionFind(decoder.graph)
        expected = np.stack([oracle.decode(row) for row in syndromes])
        tuned = np.stack([decoder._decode_reference(row) for row in syndromes])
        assert np.array_equal(tuned, expected)
        # The production path: arena, with flagged rows re-decoded.
        assert np.array_equal(decoder._decode_unique(syndromes), expected)

    def test_batches_hold_both_flag_kinds(self, batches):
        merges = cycles = 0
        for decoder, syndromes, (_, flagged, merge, cycle) in batches.values():
            assert flagged.any()
            assert np.array_equal(flagged, merge | cycle)
            merges += int(merge.sum())
            cycles += int(cycle.sum())
        assert merges > 0
        assert cycles > 0

    def test_cluster_absorbed_before_its_turn(self):
        # Defects 0 and 2.  Round 1: cluster 0 grows the zero-weight edge
        # (0, 1) at once, cluster 2 half-grows (2, 1).  Round 2: cluster
        # 0 (now {0, 1}) completes (1, 2) from node 1 and absorbs cluster
        # 2 before cluster 2's turn, which must then be skipped.
        graph = DecodingGraph(3, 1)
        graph.add_mechanism((0, 1), 0.5, ())
        graph.add_mechanism((1, 2), 0.01, ())
        graph.add_mechanism((0,), 0.001, (0,))
        graph.add_mechanism((2,), 0.001, ())
        oracle = ReferenceUnionFind(graph)
        syndrome = np.array([1, 0, 1], dtype=np.uint8)
        expected = oracle.decode(syndrome)
        for batched in (False, True):
            decoder = UnionFindDecoder(graph, batched=batched)
            assert np.array_equal(decoder.decode(syndrome), expected)
            assert decoder._grow({0, 2}) == oracle._grow({0, 2})

    def test_convergence_error_unchanged(self):
        # Detector 1 only connects to detector 2, which never fires and
        # never reaches the boundary: growth cannot validate the cluster.
        dem = DetectorErrorModel(
            (
                ErrorMechanism(0.01, (0,), (0,)),
                ErrorMechanism(0.01, (1, 2), ()),
            ),
            3,
            1,
        )
        graph = DecodingGraph.from_dem(dem)
        syndrome = np.array([0, 1, 0], dtype=np.uint8)
        with pytest.raises(RuntimeError) as tuned:
            UnionFindDecoder(graph, batched=False).decode(syndrome)
        with pytest.raises(RuntimeError) as frozen:
            ReferenceUnionFind(graph).decode(syndrome)
        assert str(tuned.value) == str(frozen.value)

    @pytest.mark.parametrize("batched", [True, False])
    def test_masks_beyond_64_observables(self, batched):
        # The reference loop's Python-int mask spans two uint64 words
        # here; packing it into one word used to raise OverflowError.
        graph = DecodingGraph(2, 70)
        graph.add_mechanism((0,), 0.01, frozenset({69}))
        graph.add_mechanism((1,), 0.01, frozenset({3, 64}))
        decoder = UnionFindDecoder(graph, batched=batched)
        expected = np.zeros((4, 70), dtype=np.uint8)
        expected[1, 69] = 1
        expected[2, [3, 64]] = 1
        expected[3, [3, 64, 69]] = 1
        syndromes = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        assert np.array_equal(decoder.decode([1, 0]), expected[1])
        assert np.array_equal(decoder.decode_batch(syndromes), expected)


class TestRowsCounter:
    def _rows_total(self):
        series = REGISTRY.snapshot()["repro_uf_rows_total"]["series"]
        return (
            series.get(("arena",), 0.0),
            series.get(("reference",), 0.0),
        )

    def test_counts_arena_flags(self, batches):
        decoder, syndromes, (_, flagged, _, _) = batches[7]
        before = self._rows_total()
        decoder._decode_unique(syndromes)
        after = self._rows_total()
        assert after[1] - before[1] == int(flagged.sum())
        assert after[0] - before[0] == syndromes.shape[0] - int(flagged.sum())

    def test_per_shot_mode_counts_every_row_as_reference(self, batches):
        decoder, syndromes, _ = batches[3]
        per_shot = UnionFindDecoder(decoder.graph, batched=False)
        before = self._rows_total()
        per_shot._decode_unique(syndromes)
        after = self._rows_total()
        assert (after[0] - before[0], after[1] - before[1]) == (
            0.0,
            float(syndromes.shape[0]),
        )

    def test_worker_count_invariant(self):
        circuit = memory_circuit(5, 3, 1e-3)
        totals = []
        for workers in (1, 2):
            REGISTRY.reset()
            with rare_engine(
                circuit,
                "union_find",
                min_failure_weight=3,
                shard_shots=256,
                workers=workers,
            ) as engine:
                engine.run(2048, seed=11)
            totals.append(self._rows_total())
        assert totals[0] == totals[1]
        assert totals[0][0] > 0 and totals[0][1] > 0
