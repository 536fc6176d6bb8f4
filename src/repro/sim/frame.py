"""Pauli-frame Monte-Carlo sampler.

The frame simulator propagates only *errors* through a Clifford circuit:
the noiseless circuit is assumed to make every DETECTOR deterministic (the
builders in :mod:`repro.sim.memory` guarantee this; a tableau cross-check is
provided in the tests).  Each shot holds an X/Z frame per qubit; noise ops
flip frame bits with their probabilities, gates conjugate the frame, and a
measurement's outcome flip is the frame's anticommutation with the measured
observable.  Detector values are XORs of measurement flips.

The same propagation engine, run with one "shot" per elementary error
mechanism, yields the detector error model (DEM): for every possible
physical error, the set of detectors and logical observables it flips.
That extraction lives in :mod:`repro.noise.dem` (the
:class:`DetectorErrorModel` / :class:`ErrorMechanism` classes are
re-exported here for compatibility); :meth:`FrameSimulator.detector_error_model`
delegates to it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.noise.dem import DetectorErrorModel, ErrorMechanism  # noqa: F401
from repro.obs import metrics as _metrics
from repro.sim.circuit import Circuit
from repro.sim.compiled import (
    FAULTS,
    NoiseChannel,
    draw_faults,
    noise_sites,
    transpose_packed,
)
from repro.sim.ops import NOISE, NOISE_MARKERS


class FrameSimulator:
    """Vectorized Pauli-frame propagation over many shots.

    Args:
        circuit: the circuit to sample.
        rng: default noise generator for sampling calls without one.
        compile_mode: packed-program selection passed through to
            :func:`repro.sim.periodic.compile_program` -- ``"auto"``
            (default) replays a detected repeated round periodically,
            ``"linear"`` / ``"periodic"`` force a path.  Every mode
            samples bit-identically per seed.
    """

    def __init__(
        self,
        circuit: Circuit,
        rng: Optional[np.random.Generator] = None,
        compile_mode: str = "auto",
    ) -> None:
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        self.compile_mode = compile_mode
        self._rng = rng if rng is not None else np.random.default_rng()
        self._compiled = None

    @property
    def compiled(self):
        """The circuit's packed program (fingerprint-memoized, fetched once).

        A :class:`~repro.sim.periodic.PeriodicProgram` when the circuit
        has a detected repeated round (and the mode allows it), else the
        linear :class:`~repro.sim.compiled.CompiledProgram`.
        """
        if self._compiled is None:
            from repro.sim.periodic import compile_program

            self._compiled = compile_program(self.circuit, mode=self.compile_mode)
        return self._compiled

    # -- sampling --------------------------------------------------------------

    def sample(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample detector and observable flip tables.

        Args:
            shots: number of Monte-Carlo shots to draw.
            rng: generator to draw noise from; defaults to the simulator's
                own.  Passing an explicit generator lets callers (e.g. the
                sharded decoding engine) sample independent, reproducible
                streams without rebuilding the simulator.

        Returns:
            (detectors, observables): uint8 arrays of shape
            (shots, num_detectors) and (shots, num_observables).
        """
        frame_x = np.zeros((shots, self.num_qubits), dtype=np.uint8)
        frame_z = np.zeros((shots, self.num_qubits), dtype=np.uint8)
        flips = np.zeros((shots, self.circuit.num_measurements), dtype=np.uint8)
        detectors = np.zeros((shots, self.circuit.num_detectors), dtype=np.uint8)
        observables = np.zeros((shots, max(self.circuit.num_observables, 1)), dtype=np.uint8)
        cursor = _Cursor()
        rng = rng if rng is not None else self._rng
        faults = 0
        for op in self.circuit.operations:
            if op.name in NOISE:
                faults += self._apply_noise(op, frame_x, frame_z, rng)
                continue
            self._apply(op, frame_x, frame_z, flips, detectors, observables, cursor)
        if _metrics.enabled():
            FAULTS.inc(faults)
        return detectors, observables[:, : self.circuit.num_observables]

    def sample_packed(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample detector/observable tables as bit-packed per-shot keys.

        Runs the compiled bit-packed pipeline (:mod:`repro.sim.compiled`):
        gates operate on packed word rows (8-64 shots per ALU op) and
        detector extraction is one sparse XOR-reduce.  Noise is drawn
        sparsely: each noise step samples only the faults that fire
        (:func:`repro.sim.compiled.draw_faults` -- a binomial hit count, a
        uniform subset of (target, shot) positions, one outcome per hit),
        so the cost scales with the faults drawn rather than with
        targets x shots.  :meth:`sample` calls the same draw in the same
        op order, so for the same seed the unpacked bits equal its output
        *bit for bit*.

        Returns:
            (detectors, observables): uint8 arrays of shape
            ``(shots, ceil(num_detectors/8))`` and
            ``(shots, ceil(num_observables/8))``; each row is the shot's
            detector/observable bits packed with ``np.packbits`` big-endian
            bit order -- exactly the dedup key format
            :meth:`repro.decoder.base.BatchDecoder.decode_packed` consumes.
        """
        program = self.compiled
        det, obs = program.run_packed(
            shots, rng if rng is not None else self._rng
        )
        return transpose_packed(det, shots), transpose_packed(obs, shots)

    def sample_weighted(
        self, shots: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, None]:
        """:meth:`sample_packed` as a decoding-engine shot source.

        Returns ``(det_keys, obs_keys, None)``: shots drawn from the
        circuit's own noise all have unit weight, which ``None`` stands
        for (the importance-sampled source,
        :meth:`repro.estimator.rare.ImportanceSampler.sample_weighted`,
        returns per-shot log weights there instead).
        """
        det, obs = self.sample_packed(shots, rng=rng)
        return det, obs, None

    # -- detector error model ----------------------------------------------------

    def detector_error_model(self) -> DetectorErrorModel:
        """Extract the circuit's DEM (see :func:`repro.noise.dem.extract_dem`)."""
        from repro.noise.dem import extract_dem

        return extract_dem(self.circuit)

    # -- op application ------------------------------------------------------------

    def _apply(self, op, frame_x, frame_z, flips, detectors, observables, cursor):
        """Apply one deterministic op or annotation (noise: :meth:`_apply_noise`)."""
        name = op.name
        if name == "H":
            for q in op.targets:
                frame_x[:, q], frame_z[:, q] = frame_z[:, q].copy(), frame_x[:, q].copy()
        elif name == "S" or name == "S_DAG":
            for q in op.targets:
                frame_z[:, q] ^= frame_x[:, q]
        elif name in ("X", "Y", "Z", "TICK") or name in NOISE_MARKERS:
            return  # Paulis commute through the frame; markers are no-ops.
        elif name == "CX":
            for c, t in zip(op.targets[0::2], op.targets[1::2]):
                frame_x[:, t] ^= frame_x[:, c]
                frame_z[:, c] ^= frame_z[:, t]
        elif name == "CZ":
            for a, b in zip(op.targets[0::2], op.targets[1::2]):
                frame_z[:, a] ^= frame_x[:, b]
                frame_z[:, b] ^= frame_x[:, a]
        elif name == "SWAP":
            for a, b in zip(op.targets[0::2], op.targets[1::2]):
                frame_x[:, [a, b]] = frame_x[:, [b, a]]
                frame_z[:, [a, b]] = frame_z[:, [b, a]]
        elif name == "R":
            for q in op.targets:
                frame_x[:, q] = 0
                frame_z[:, q] = 0
        elif name == "RX":
            for q in op.targets:
                frame_x[:, q] = 0
                frame_z[:, q] = 0
        elif name == "M":
            for q in op.targets:
                flips[:, cursor.measurement] = frame_x[:, q]
                cursor.measurement += 1
        elif name == "MX":
            for q in op.targets:
                flips[:, cursor.measurement] = frame_z[:, q]
                cursor.measurement += 1
        elif name == "DETECTOR":
            value = np.zeros(flips.shape[0], dtype=np.uint8)
            for rec in op.targets:
                value ^= flips[:, rec]
            detectors[:, cursor.detector] = value
            cursor.detector += 1
        elif name == "OBSERVABLE_INCLUDE":
            index = int(op.arg)
            for rec in op.targets:
                observables[:, index] ^= flips[:, rec]
        else:
            raise ValueError(f"frame simulator cannot run {name}")

    @staticmethod
    def _apply_noise(op, frame_x, frame_z, rng) -> int:
        """Draw one noise op's faults and flip them in; returns the count.

        Same :func:`~repro.sim.compiled.draw_faults` call, on the same
        ``(targets, shots)`` block, as the compiled pipeline.
        """
        sites = noise_sites(op)
        drawn = draw_faults(
            rng, NoiseChannel.from_op(op), sites.shape[1], frame_x.shape[0]
        )
        qubits = sites[drawn.slot >> 1, drawn.target]
        x_flip = (drawn.slot & 1) == 0
        np.bitwise_xor.at(frame_x, (drawn.shot[x_flip], qubits[x_flip]), 1)
        np.bitwise_xor.at(frame_z, (drawn.shot[~x_flip], qubits[~x_flip]), 1)
        return drawn.count


class _Cursor:
    """Mutable counters for measurement/detector positions during a pass."""

    def __init__(self) -> None:
        self.measurement = 0
        self.detector = 0
