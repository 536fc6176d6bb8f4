"""Sparse noise draws: the pinned stream and an exact-marginal oracle.

Both Pauli-frame samplers draw noise through one documented contract
(:func:`repro.sim.compiled.draw_faults`): per noise step, a binomial
fault count over the flattened target-major ``(targets, shots)`` block,
a uniform subset of positions, then one outcome per fault.  Two
independent checks pin it:

* **Stream pin** -- the draw is re-derived here from the contract alone
  (plain ``Generator`` calls and the ``PAULI_1Q`` / ``PAULI_2Q`` flip
  tables, no sampler code), and both ``sample_packed`` and ``sample``
  must reproduce it bit for bit.
* **Exact marginals** -- channels fire independently and a channel's
  outcomes are mutually exclusive, so a detector's flip probability is
  ``(1 - prod_c(1 - 2 q_c)) / 2``, with ``q_c`` the total probability of
  channel ``c``'s outcomes that flip it (symptoms from the reference DEM
  propagation).  Sampled per-detector rates must match within a fixed
  max-|z| bound.
"""

import numpy as np
import pytest

from repro.noise.dem import _linear_mechanisms, enumerate_mechanisms
from repro.obs import REGISTRY
from repro.sim.circuit import Circuit
from repro.sim.frame import FrameSimulator
from repro.sim.memory import memory_circuit
from repro.sim.ops import NOISE_1Q, NOISE_2Q, PAULI_1Q, PAULI_2Q

from oracles import frame_v1

# -- stream pin -----------------------------------------------------------------

FIXED_FLIPS = {"X_ERROR": (1, 0), "Y_ERROR": (1, 1), "Z_ERROR": (0, 1)}


def every_channel_circuit(p: float) -> Circuit:
    """Every noise kind once, with repeated targets, then M and MX reads.

    The frame sampler's measurements copy the frame without disturbing
    it, so measuring each qubit in Z then X records its X and Z flips.
    """
    circuit = (
        Circuit()
        .reset(0, 1, 2, 3)
        .x_error([0, 0, 1], p)
        .z_error([2, 3], p)
        .append("Y_ERROR", (1, 1), p)
        .depolarize1([0, 2, 2], p)
        .depolarize2([0, 1, 1, 0, 2, 3], p)
        .pauli_channel_1([3, 3, 1], 0.2 * p, 0.3 * p, 0.5 * p)
        .pauli_channel_2(
            [2, 3, 3, 2], [p * w for w in np.arange(1, 16) / 120.0]
        )
        .measure(0, 1, 2, 3)
        .measure_x(0, 1, 2, 3)
    )
    for record in range(8):
        circuit.detector([record])
    circuit.observable_include(0, [0, 5])
    return circuit


def rederived_frames(circuit: Circuit, shots: int, seed: int):
    """The documented draw, re-derived: (x flips, z flips, fault count)."""
    rng = np.random.default_rng(seed)
    x = np.zeros((shots, circuit.num_qubits), dtype=np.uint8)
    z = np.zeros((shots, circuit.num_qubits), dtype=np.uint8)
    faults = 0
    for op in circuit.operations:
        if op.name in NOISE_2Q:
            groups = list(zip(op.targets[0::2], op.targets[1::2]))
        elif op.name in NOISE_1Q:
            groups = [(q,) for q in op.targets]
        else:
            continue
        n = len(groups) * shots
        if n == 0:
            continue
        if op.args:
            cumulative = np.cumsum(np.asarray(op.args, dtype=float))
            p = min(float(cumulative[-1]), 1.0)
        else:
            p = op.arg
        k = int(rng.binomial(n, p))
        if k == 0:
            continue
        faults += k
        positions = rng.choice(n, k, replace=False, shuffle=False)
        if op.name in FIXED_FLIPS:
            outcomes = [(FIXED_FLIPS[op.name],)] * k
        elif op.name == "DEPOLARIZE1":
            outcomes = [(PAULI_1Q[i],) for i in rng.integers(3, size=k)]
        elif op.name == "DEPOLARIZE2":
            outcomes = [PAULI_2Q[i] for i in rng.integers(15, size=k)]
        else:
            picks = np.searchsorted(
                cumulative[:-1] / p, rng.random(k), side="right"
            )
            table = PAULI_2Q if op.name in NOISE_2Q else [(o,) for o in PAULI_1Q]
            outcomes = [table[i] for i in picks]
        for position, outcome in zip(positions, outcomes):
            group, shot = divmod(int(position), shots)
            for q, (x_flip, z_flip) in zip(groups[group], outcome):
                x[shot, q] ^= x_flip
                z[shot, q] ^= z_flip
    return x, z, faults


class TestStreamPin:
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("shots", [1, 7, 200])
    @pytest.mark.parametrize("seed", [0, 17, 20261017])
    def test_both_samplers_follow_the_documented_draw(self, seed, shots, p):
        circuit = every_channel_circuit(p)
        x, z, faults = rederived_frames(circuit, shots, seed)
        expected = np.concatenate([x, z], axis=1)
        expected_obs = x[:, [0]] ^ z[:, [1]]

        sim = FrameSimulator(circuit)
        REGISTRY.reset()
        det, obs = frame_v1.sample(circuit, shots, np.random.default_rng(seed))
        reference_faults = REGISTRY.get("repro_sim_faults_total").value
        det_keys, obs_keys = sim.sample_packed(
            shots, rng=np.random.default_rng(seed)
        )
        packed_faults = (
            REGISTRY.get("repro_sim_faults_total").value - reference_faults
        )

        np.testing.assert_array_equal(det, expected)
        np.testing.assert_array_equal(obs, expected_obs)
        np.testing.assert_array_equal(
            np.unpackbits(det_keys, axis=1, count=8), expected
        )
        np.testing.assert_array_equal(
            np.unpackbits(obs_keys, axis=1, count=1), expected_obs
        )
        # One counter increment per sample call, by the faults drawn.
        assert reference_faults == packed_faults == faults
        if p == 1.0:
            assert faults == 18 * shots  # every target fires every shot
        if p == 0.0:
            assert faults == 0 and not expected.any()


# -- exact-marginal oracle --------------------------------------------------------


def exact_marginals(circuit: Circuit) -> np.ndarray:
    """Exact per-detector and per-observable flip probabilities.

    Returns one probability per detector followed by one per observable.
    A channel is one target (pair) of one noise op: its outcomes are
    consecutive entries of :func:`enumerate_mechanisms`, one per Pauli
    outcome, and exactly one of them fires when the channel does.
    """
    mechanisms = enumerate_mechanisms(circuit)
    symptoms = _linear_mechanisms(circuit)
    width = circuit.num_detectors + circuit.num_observables
    log_keep = np.zeros(width)  # sum over channels of log(1 - 2 q_c)
    index = 0
    while index < len(mechanisms):
        op = mechanisms[index][0]
        outcomes = 15 if op.name in NOISE_2Q else (
            1 if op.name in FIXED_FLIPS else 3
        )
        q = np.zeros(width)
        for mech, (_, detectors, observables) in zip(
            mechanisms[index : index + outcomes],
            symptoms[index : index + outcomes],
        ):
            assert mech[0] is op
            flipped = list(detectors) + [
                circuit.num_detectors + o for o in observables
            ]
            q[flipped] += mech[1]
        log_keep += np.log1p(-2.0 * q)
        index += outcomes
    return (1.0 - np.exp(log_keep)) / 2.0


def sampled_rates(circuit: Circuit, shots: int, seed: int) -> np.ndarray:
    """Per-detector then per-observable flip rates from ``sample_packed``.

    Sampled in 100k-shot chunks of one generator stream, so memory stays
    bounded at high resolution.
    """
    sim = FrameSimulator(circuit)
    rng = np.random.default_rng(seed)
    counts = np.zeros(circuit.num_detectors + circuit.num_observables)
    done = 0
    while done < shots:
        chunk = min(100_000, shots - done)
        det_keys, obs_keys = sim.sample_packed(chunk, rng=rng)
        counts[: circuit.num_detectors] += np.unpackbits(
            det_keys, axis=1, count=circuit.num_detectors
        ).sum(axis=0)
        counts[circuit.num_detectors :] += np.unpackbits(
            obs_keys, axis=1, count=circuit.num_observables
        ).sum(axis=0)
        done += chunk
    return counts / shots


def max_abs_z(rates: np.ndarray, exact: np.ndarray, shots: int) -> float:
    """Largest |z| of sampled rates against exact marginals."""
    sigma = np.sqrt(exact * (1 - exact) / shots)
    return float(np.max(np.abs(rates - exact) / sigma))


# With ~50-300 Gaussian columns, max |z| > 4.5 has probability < 2e-3 on a
# correct sampler; a wrong outcome split or hit rate shows as |z| >> 10.
MAX_Z = 4.5


class TestExactMarginals:
    @pytest.mark.parametrize("noise", [None, "biased_pauli"])
    @pytest.mark.parametrize("distance,rounds", [(3, 3), (5, 3)])
    def test_detector_rates_match_exact_marginals(
        self, distance, rounds, noise
    ):
        circuit = memory_circuit(distance, rounds, 5e-3, noise=noise)
        exact = exact_marginals(circuit)
        assert exact.min() > 0  # every column is exercised by some channel
        rates = sampled_rates(circuit, 400_000, seed=4242)
        assert max_abs_z(rates, exact, 400_000) < MAX_Z

    @pytest.mark.slow
    @pytest.mark.parametrize("noise", [None, "biased_pauli"])
    def test_detector_rates_match_exact_marginals_d7(self, noise):
        circuit = memory_circuit(7, 4, 5e-3, noise=noise)
        rates = sampled_rates(circuit, 4_000_000, seed=4243)
        assert max_abs_z(rates, exact_marginals(circuit), 4_000_000) < MAX_Z

    def test_oracle_detects_a_wrong_outcome_split(self):
        # Sanity of the oracle itself: replacing DEPOLARIZE1 by a pure
        # X_ERROR of the same total probability keeps the hit rate but
        # changes the outcome split, and must be flagged.
        circuit = memory_circuit(3, 3, 5e-3)
        swapped = Circuit()
        for op in circuit.operations:
            name = "X_ERROR" if op.name == "DEPOLARIZE1" else op.name
            swapped.append(name, op.targets, op.arg, op.args)
        rates = sampled_rates(swapped, 400_000, seed=4242)
        assert max_abs_z(rates, exact_marginals(circuit), 400_000) > MAX_Z
