"""Frozen copy of the byte-per-bit Pauli-frame interpreter.

:func:`sample` is ``FrameSimulator.sample`` as it stood before the
packed program became the only production sampler: one uint8 per
(shot, qubit), every op target walked in a Python loop.  It calls the
same :func:`repro.sim.compiled.draw_faults` in the same op order as the
compiled program, so for the same seed its unpacked output equals
``FrameSimulator.sample_packed`` bit for bit.

:func:`linear_mechanisms` is the row-per-mechanism DEM propagation
``extract_dem(method="linear")`` used before it moved onto the packed
bit-column propagation: each elementary mechanism is injected into its
own frame row and propagated through the same interpreter.

Do not edit the functions below: tests certify the packed sampler and
the packed DEM extraction against them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.noise.dem import ErrorMechanism, enumerate_mechanisms
from repro.obs import metrics as _metrics
from repro.sim.circuit import Circuit
from repro.sim.compiled import FAULTS, NoiseChannel, draw_faults, noise_sites
from repro.sim.ops import NOISE, NOISE_MARKERS


class _Cursor:
    """Mutable counters for measurement/detector positions during a pass."""

    def __init__(self) -> None:
        self.measurement = 0
        self.detector = 0


def sample(
    circuit: Circuit, shots: int, rng: Optional[np.random.Generator] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample detector and observable flip tables, one byte per bit.

    Like the compiled program, one call increments
    ``repro_sim_faults_total`` by the faults it drew.

    Returns:
        (detectors, observables): uint8 arrays of shape
        (shots, num_detectors) and (shots, num_observables).
    """
    rng = rng if rng is not None else np.random.default_rng()
    frame_x = np.zeros((shots, circuit.num_qubits), dtype=np.uint8)
    frame_z = np.zeros((shots, circuit.num_qubits), dtype=np.uint8)
    flips = np.zeros((shots, circuit.num_measurements), dtype=np.uint8)
    detectors = np.zeros((shots, circuit.num_detectors), dtype=np.uint8)
    observables = np.zeros((shots, max(circuit.num_observables, 1)), dtype=np.uint8)
    cursor = _Cursor()
    faults = 0
    for op in circuit.operations:
        if op.name in NOISE:
            faults += _apply_noise(op, frame_x, frame_z, rng)
            continue
        _apply(op, frame_x, frame_z, flips, detectors, observables, cursor)
    if _metrics.enabled():
        FAULTS.inc(faults)
    return detectors, observables[:, : circuit.num_observables]


def linear_mechanisms(circuit: Circuit) -> List[ErrorMechanism]:
    """Unmerged mechanism list via one frame row per mechanism."""
    mechanisms = enumerate_mechanisms(circuit)
    count = len(mechanisms)
    frame_x = np.zeros((count, circuit.num_qubits), dtype=np.uint8)
    frame_z = np.zeros((count, circuit.num_qubits), dtype=np.uint8)
    flips = np.zeros((count, circuit.num_measurements), dtype=np.uint8)
    detectors = np.zeros((count, circuit.num_detectors), dtype=np.uint8)
    observables = np.zeros((count, max(circuit.num_observables, 1)), dtype=np.uint8)
    cursor = _Cursor()
    noise_index = 0
    for op in circuit.operations:
        if op.name in NOISE:
            # Inject the mechanisms tied to this op into their rows.
            while noise_index < count and mechanisms[noise_index][0] is op:
                _, _, x_flip_qubits, z_flip_qubits, _ = mechanisms[noise_index]
                row = noise_index
                for q in x_flip_qubits:
                    frame_x[row, q] ^= 1
                for q in z_flip_qubits:
                    frame_z[row, q] ^= 1
                noise_index += 1
        else:
            _apply(op, frame_x, frame_z, flips, detectors, observables, cursor)
    return [
        ErrorMechanism(
            probability=prob,
            detectors=tuple(int(d) for d in np.flatnonzero(detectors[row])),
            observables=tuple(int(o) for o in np.flatnonzero(observables[row])),
        )
        for row, (_, prob, _, _, _) in enumerate(mechanisms)
    ]


def _apply(op, frame_x, frame_z, flips, detectors, observables, cursor):
    """Apply one deterministic op or annotation (noise: :func:`_apply_noise`)."""
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
