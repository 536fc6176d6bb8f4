"""Pauli-frame Monte-Carlo sampler.

The frame simulator propagates only *errors* through a Clifford circuit:
the noiseless circuit is assumed to make every DETECTOR deterministic (the
builders in :mod:`repro.sim.memory` guarantee this; a tableau cross-check is
provided in the tests).  Each shot holds an X/Z frame per qubit; noise ops
flip frame bits with their probabilities, gates conjugate the frame, and a
measurement's outcome flip is the frame's anticommutation with the measured
observable.  Detector values are XORs of measurement flips.  Sampling runs
the circuit's compiled bit-packed program (:mod:`repro.sim.compiled`,
:mod:`repro.sim.periodic`).

The same packed propagation, run with one bit column per elementary error
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
from repro.sim.circuit import Circuit
from repro.sim.compiled import transpose_packed


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
        targets x shots.

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
