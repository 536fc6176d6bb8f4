"""Tests for the union-find decoder and rotation-synthesis costs."""

import numpy as np
import pytest

from repro.algorithms.rotation_synthesis import RotationCost, qpe_rotation_budget
from repro.decoder.graph import DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.decoder.union_find import UnionFindDecoder
from repro.sim.frame import DetectorErrorModel, ErrorMechanism, FrameSimulator
from repro.sim.memory import memory_circuit

from oracles import frame_v1


def chain_dem():
    return DetectorErrorModel(
        [
            ErrorMechanism(0.01, (0,), (0,)),
            ErrorMechanism(0.01, (0, 1), ()),
            ErrorMechanism(0.01, (1, 2), ()),
            ErrorMechanism(0.01, (2,), ()),
        ],
        3,
        1,
    )


class TestUnionFind:
    def test_empty_syndrome(self):
        dec = UnionFindDecoder(DecodingGraph.from_dem(chain_dem()))
        assert not dec.decode(np.zeros(3, dtype=np.uint8)).any()

    def test_boundary_matching_flips_observable(self):
        dec = UnionFindDecoder(DecodingGraph.from_dem(chain_dem()))
        assert dec.decode(np.array([1, 0, 0], dtype=np.uint8))[0] == 1

    def test_internal_pair_no_flip(self):
        dec = UnionFindDecoder(DecodingGraph.from_dem(chain_dem()))
        assert dec.decode(np.array([1, 1, 0], dtype=np.uint8))[0] == 0

    def test_far_defect_uses_near_boundary(self):
        dec = UnionFindDecoder(DecodingGraph.from_dem(chain_dem()))
        assert dec.decode(np.array([0, 0, 1], dtype=np.uint8))[0] == 0

    def test_memory_experiment_decoding(self):
        # Union-find must decode a real d=3 memory circuit and correct a
        # large majority of shots at low noise.
        circuit = memory_circuit(3, 3, 0.002)
        dem = FrameSimulator(circuit).detector_error_model()
        dec = UnionFindDecoder(DecodingGraph.from_dem(dem))
        dets, obs = frame_v1.sample(circuit, 400, np.random.default_rng(3))
        predictions = dec.decode_batch(dets)
        failures = int(np.sum(predictions[:, 0] ^ obs[:, 0]))
        assert failures / 400 < 0.1

    def test_not_much_worse_than_mwpm(self):
        # The accuracy gap vs MWPM is bounded (the paper's alpha story).
        circuit = memory_circuit(3, 3, 0.004)
        dem = FrameSimulator(circuit).detector_error_model()
        graph = DecodingGraph.from_dem(dem)
        dets, obs = frame_v1.sample(circuit, 400, np.random.default_rng(5))
        uf_failures = int(
            np.sum(UnionFindDecoder(graph).decode_batch(dets)[:, 0] ^ obs[:, 0])
        )
        mwpm_failures = int(
            np.sum(MWPMDecoder(graph).decode_batch(dets)[:, 0] ^ obs[:, 0])
        )
        assert uf_failures <= max(4 * mwpm_failures, mwpm_failures + 20)

    def test_batch_shape(self):
        dec = UnionFindDecoder(DecodingGraph.from_dem(chain_dem()))
        out = dec.decode_batch(np.zeros((7, 3), dtype=np.uint8))
        assert out.shape == (7, 1)


class TestRotationSynthesis:
    def test_angle_bits_scale_with_accuracy(self):
        assert RotationCost(1e-3).angle_bits < RotationCost(1e-9).angle_bits

    def test_gradient_toffolis_equal_bits(self):
        cost = RotationCost(1e-6)
        assert cost.gradient_toffolis == cost.angle_bits

    def test_synthesis_t_count_log_scaling(self):
        t3 = RotationCost(1e-3).synthesis_t_count
        t6 = RotationCost(1e-6).synthesis_t_count
        assert t6 == pytest.approx(t3 + 1.15 * math_log2_ratio(), rel=0.01)

    def test_gradient_faster_for_typical_accuracy(self):
        # b-bit addition beats ~1.15 log(1/eps) sequential T gates when the
        # addition ripples at the same reaction cadence but b < T-count.
        cost = RotationCost(1e-9)
        assert cost.gradient_time < 2 * cost.synthesis_time

    def test_preferred_route_is_reported(self):
        assert RotationCost(1e-6).preferred_route() in ("gradient", "synthesis")

    def test_qpe_budget_splits_evenly(self):
        assert qpe_rotation_budget(3072, 0.03) == pytest.approx(0.03 / 3072)

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ValueError):
            RotationCost(0.0)


def math_log2_ratio() -> float:
    import math

    return math.log2(1e-3 / 1e-6)
