"""Compiled, bit-packed circuit programs for the Pauli-frame sampler.

The reference sampler (:meth:`repro.sim.frame.FrameSimulator.sample`)
stores one uint8 per (shot, qubit) and walks every op target in a Python
loop, so its cost is O(ops * targets * shots) interpreted work over a
byte-per-bit representation.  This module closes that gap the way
SIMD-style stabilizer samplers do:

* **Compile once** -- :class:`CompiledProgram` lowers a
  :class:`~repro.sim.circuit.Circuit` into a flat program of fused steps.
  Consecutive gates with the same semantics are merged (``S``/``S_DAG``
  and ``R``/``RX`` are canonicalized, repeated involutions parity-reduced)
  and their target lists are precomputed as numpy index arrays, split into
  conflict-free chunks so fancy-indexed whole-row updates are exactly
  equivalent to the sequential per-target loop.
* **Bit-packed frames** -- X/Z frames are ``(num_qubits, ceil(shots/8))``
  uint8 bitplanes, padded so each row is also viewable as uint64 words.
  H/S/CX/CZ/SWAP/R/M become whole-row XORs/swaps/copies over packed words,
  processing 64 shots per ALU op instead of one.
* **Sparse GF(2) record maps** -- DETECTOR / OBSERVABLE_INCLUDE
  annotations are lowered to COO index arrays over measurement records;
  detector extraction is one unbuffered XOR-reduce
  (:func:`numpy.bitwise_xor.at`) at the end of the pass instead of per-op
  column loops.
* **Bit-identical noise** -- noise steps draw exactly one
  ``rng.random((shots, targets))`` block per op, in op order, mirroring
  the reference sampler's stream exactly; the hit masks are bit-packed
  and XORed into the frame rows.  ``DEPOLARIZE2`` derives its Pauli-pair
  outcome from the *same* uniform draw as the hit decision
  (:func:`depolarize2_pauli_indices`), so for the same seed the packed
  pipeline produces *bit-identical* detector/observable samples.  The
  equivalence is property-tested in ``tests/test_sim_compiled.py``; the
  unpacked sampler remains the reference oracle.

Shot-major vs detector-major: frames pack shots along rows so gate ops are
contiguous; decoders key on per-shot syndromes.  :func:`transpose_packed`
converts between the two layouts once per sample at the decoder boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.sim.circuit import Circuit
from repro.sim.ops import (
    CANONICAL_FRAME_GATE as _CANONICAL,
    DROPPED_BY_COMPILER as _DROPPED,
    FUSABLE as _FUSABLE,
    NOISE as _NOISE,
    PAULI_1Q,
    PAULI_1Q_CODES,
    PAULI_2Q,
    PAULI_2Q_CODES,
)

# Flip-code lookup tables for the biased Pauli channels, indexed by the
# searchsorted outcome; the trailing identity entry (code 0) is the miss.
PC1_CODE_TABLE = np.array(PAULI_1Q_CODES + (0,), dtype=np.uint8)
PC2_CODE_TABLE = np.array(PAULI_2Q_CODES + (0,), dtype=np.uint8)


def _index_array(values: Sequence[int]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.intp)


def _parity_reduced(targets: Sequence[int]) -> np.ndarray:
    """Qubits hit an odd number of times, for involution gates (H, S)."""
    counts: Dict[int, int] = {}
    for q in targets:
        counts[q] = counts.get(q, 0) + 1
    return _index_array(sorted(q for q, c in counts.items() if c % 2))


def _disjoint_pair_chunks(
    pairs: Sequence[Tuple[int, int]]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a pair list into chunks whose flattened qubits are unique.

    Within such a chunk, a simultaneous fancy-indexed row update is exactly
    equivalent to applying the pairs one at a time (no read/write overlap
    and no dropped XOR accumulation on repeated indices).
    """
    chunks: List[Tuple[np.ndarray, np.ndarray]] = []
    first: List[int] = []
    second: List[int] = []
    used: set = set()
    for a, b in pairs:
        if a in used or b in used or a == b:
            chunks.append((_index_array(first), _index_array(second)))
            first, second, used = [], [], set()
        first.append(a)
        second.append(b)
        used.add(a)
        used.add(b)
    if first:
        chunks.append((_index_array(first), _index_array(second)))
    return chunks


@dataclass
class LoweredSegment:
    """A slice of a circuit lowered to fused steps plus its record COO.

    ``meas_count`` / ``det_count`` are the measurements and detectors the
    slice itself emits; the COO arrays and ``M``/``MX`` record slots are
    *absolute* (offset by the ``meas_start`` / ``det_start`` the slice was
    lowered at), so a segment can be executed in place inside a larger
    program -- the basis of :class:`repro.sim.periodic.PeriodicProgram`.
    """

    steps: List[tuple]
    det_meas: np.ndarray
    det_row: np.ndarray
    obs_meas: np.ndarray
    obs_row: np.ndarray
    meas_count: int
    det_count: int


def lower_ops(ops, meas_start: int = 0, det_start: int = 0) -> LoweredSegment:
    """Lower an op sequence to fused steps and sparse GF(2) record maps.

    Fusion never crosses the sequence boundary (the buffer is flushed at
    the end), so lowering a circuit in segments and executing them in
    order is exactly equivalent to lowering it whole -- per-step payloads
    may fuse differently across a cut, but the applied frame updates are
    identical.
    """
    steps: List[tuple] = []
    det_meas: List[int] = []  # COO: measurement record index ...
    det_row: List[int] = []  # ... feeding this detector row
    obs_meas: List[int] = []
    obs_row: List[int] = []
    meas_cursor = meas_start
    det_cursor = det_start
    pending_kind: str = ""
    pending: List[tuple] = []  # buffered (targets, slot) runs to fuse

    def flush() -> None:
        nonlocal pending_kind, pending
        if not pending:
            return
        kind = pending_kind
        targets: List[int] = []
        for op_targets, _ in pending:
            targets.extend(op_targets)
        if kind in ("H", "S"):
            qs = _parity_reduced(targets)
            if qs.size:
                steps.append((kind, qs))
        elif kind == "R":
            steps.append(("R", _index_array(sorted(set(targets)))))
        elif kind in ("CX", "CZ", "SWAP"):
            pairs = list(zip(targets[0::2], targets[1::2]))
            for first, second in _disjoint_pair_chunks(pairs):
                steps.append((kind, first, second))
        elif kind in ("M", "MX"):
            # Consecutive measurements occupy contiguous record slots.
            steps.append((kind, _index_array(targets), pending[0][1]))
        pending_kind, pending = "", []

    for op in ops:
        name = _CANONICAL.get(op.name, op.name)
        if name in _DROPPED:
            continue
        if name == "DETECTOR":
            for rec in op.targets:
                det_meas.append(rec)
                det_row.append(det_cursor)
            det_cursor += 1
            continue
        if name == "OBSERVABLE_INCLUDE":
            index = int(op.arg)
            for rec in op.targets:
                obs_meas.append(rec)
                obs_row.append(index)
            continue
        if name in ("X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1"):
            flush()
            qs = _index_array(op.targets)
            unique = len(set(op.targets)) == len(op.targets)
            steps.append((name, qs, float(op.arg), unique))
            continue
        if name == "PAULI_CHANNEL_1":
            flush()
            qs = _index_array(op.targets)
            unique = len(set(op.targets)) == len(op.targets)
            steps.append((name, qs, np.cumsum(np.asarray(op.args)), unique))
            continue
        if name == "DEPOLARIZE2":
            flush()
            firsts = _index_array(op.targets[0::2])
            seconds = _index_array(op.targets[1::2])
            unique = len(set(op.targets)) == len(op.targets)
            steps.append((name, firsts, seconds, unique, float(op.arg)))
            continue
        if name == "PAULI_CHANNEL_2":
            flush()
            firsts = _index_array(op.targets[0::2])
            seconds = _index_array(op.targets[1::2])
            unique = len(set(op.targets)) == len(op.targets)
            steps.append(
                (name, firsts, seconds, unique, np.cumsum(np.asarray(op.args)))
            )
            continue
        if name not in _FUSABLE:
            # Same contract as FrameSimulator._apply: unsupported ops
            # (non-Clifford gates) fail loudly, never sample wrong.
            raise ValueError(f"frame simulator cannot run {name}")
        # Fusable deterministic op: merge runs of the same kind.
        if name != pending_kind:
            flush()
            pending_kind = name
        pending.append((op.targets, meas_cursor))
        if name in ("M", "MX"):
            meas_cursor += len(op.targets)
    flush()

    return LoweredSegment(
        steps=steps,
        det_meas=_index_array(det_meas),
        det_row=_index_array(det_row),
        obs_meas=_index_array(obs_meas),
        obs_row=_index_array(obs_row),
        meas_count=meas_cursor - meas_start,
        det_count=det_cursor - det_start,
    )


class CompiledProgram:
    """A circuit lowered to fused steps over bit-packed frame bitplanes.

    Steps are ``(kind, *payload)`` tuples with all index arrays
    precomputed; :meth:`run_packed` interprets them with O(ops) Python
    overhead independent of the shot count.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.num_qubits = circuit.num_qubits
        self.num_measurements = circuit.num_measurements
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        segment = lower_ops(circuit.operations)
        self.steps: List[tuple] = segment.steps
        self._det_meas = segment.det_meas
        self._det_row = segment.det_row
        self._obs_meas = segment.obs_meas
        self._obs_row = segment.obs_row

    # -- execution -----------------------------------------------------------

    def run_packed(
        self, shots: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``shots`` noisy shots in the packed domain.

        Returns:
            (detectors, observables): shot-bit-packed bitplanes of shapes
            ``(num_detectors, ceil(shots/8))`` and
            ``(num_observables, ceil(shots/8))`` -- bit ``j`` of byte ``w``
            of a row is shot ``8 w + j`` (``np.packbits`` big-bitorder).
        """
        if shots < 0:
            raise ValueError("shots must be >= 0")
        words = (shots + 7) // 8
        padded = 8 * ((words + 7) // 8)  # rows double as uint64 word views
        x = np.zeros((self.num_qubits, padded), dtype=np.uint8)
        z = np.zeros((self.num_qubits, padded), dtype=np.uint8)
        flips = np.zeros((self.num_measurements, padded), dtype=np.uint8)
        x64 = x.view(np.uint64)
        z64 = z.view(np.uint64)
        f64 = flips.view(np.uint64)
        xw = x[:, :words]
        zw = z[:, :words]

        # One direct rng.random dispatch per noise op, in op order -- the
        # reference sampler's exact stream.
        noise = sampling_noise(lambda targets: rng.random((targets, shots)))
        execute_steps(self.steps, x64, z64, f64, xw, zw, noise)

        detectors = np.zeros((self.num_detectors, padded), dtype=np.uint8)
        observables = np.zeros((self.num_observables, padded), dtype=np.uint8)
        # Sparse GF(2) record maps: one unbuffered XOR-reduce scatters every
        # measurement-flip row into the detector/observable rows it feeds.
        if self._det_meas.size:
            np.bitwise_xor.at(detectors, self._det_row, flips[self._det_meas])
        if self._obs_meas.size:
            np.bitwise_xor.at(observables, self._obs_row, flips[self._obs_meas])
        return detectors[:, :words], observables[:, :words]


# -- step execution ------------------------------------------------------------

# Step kinds that are stochastic channels (step[0] for every noise step is
# the canonical op name, so the op table doubles as the step-kind table).
_NOISE_KINDS = frozenset(_NOISE)

# Kinds whose draw block is (len(step[1]), shots): single-qubit channels
# index by target, pair channels by pair (step[1] = first qubits).
_DRAWING_KINDS = (
    "X_ERROR",
    "Z_ERROR",
    "Y_ERROR",
    "DEPOLARIZE1",
    "PAULI_CHANNEL_1",
    "PAULI_CHANNEL_2",
)

NoiseHandler = Callable[[tuple, np.ndarray, np.ndarray], None]


def execute_steps(
    steps: Sequence[tuple],
    x64: np.ndarray,
    z64: np.ndarray,
    f64: np.ndarray,
    xw: np.ndarray,
    zw: np.ndarray,
    noise: NoiseHandler,
    slot_offset: int = 0,
) -> None:
    """Interpret fused steps over packed planes with pluggable noise.

    Deterministic steps update the uint64 word views in place; each noise
    step is delegated to ``noise(step, xw, zw)`` -- a sampling handler
    drawing uniforms (:func:`sampling_noise`) or a deterministic injector
    (:func:`injection_noise`, for DEM mechanism propagation).

    ``slot_offset`` shifts every measurement record slot, which is how a
    periodic program replays one lowered round body into successive
    record windows of the same ``flips`` plane.
    """
    for step in steps:
        kind = step[0]
        if kind == "CX":
            _, cs, ts = step
            x64[ts] ^= x64[cs]
            z64[cs] ^= z64[ts]
        elif kind == "H":
            qs = step[1]
            tmp = x64[qs].copy()
            x64[qs] = z64[qs]
            z64[qs] = tmp
        elif kind == "S":
            qs = step[1]
            z64[qs] ^= x64[qs]
        elif kind == "CZ":
            _, first, second = step
            z64[first] ^= x64[second]
            z64[second] ^= x64[first]
        elif kind == "SWAP":
            _, first, second = step
            tmp = x64[first].copy()
            x64[first] = x64[second]
            x64[second] = tmp
            tmp = z64[first].copy()
            z64[first] = z64[second]
            z64[second] = tmp
        elif kind == "R":
            qs = step[1]
            x64[qs] = 0
            z64[qs] = 0
        elif kind == "M":
            _, qs, slot = step
            slot += slot_offset
            f64[slot : slot + qs.size] = x64[qs]
        elif kind == "MX":
            _, qs, slot = step
            slot += slot_offset
            f64[slot : slot + qs.size] = z64[qs]
        elif kind in _NOISE_KINDS:
            noise(step, xw, zw)
        else:  # pragma: no cover - compile emits only the kinds above
            raise ValueError(f"unknown compiled step kind {kind!r}")


def sampling_noise(draw: Callable[[int], np.ndarray]) -> NoiseHandler:
    """Noise handler applying channels from a uniform-draw source.

    ``draw(targets)`` must return a ``(targets, shots)`` float64 block of
    uniforms.  The handler consumes exactly one block per noise step, in
    step order, with the same shapes and comparisons as the reference
    sampler -- the draw source controls only *where* the uniforms come
    from (a direct ``rng.random`` dispatch, or a slice of a fused
    pre-drawn buffer), never their order or values, which is what keeps
    every execution path bit-identical per seed.
    """

    def apply(step: tuple, xw: np.ndarray, zw: np.ndarray) -> None:
        kind = step[0]
        if kind == "X_ERROR":
            _, qs, p, unique = step
            hit = draw(qs.size) < p
            _xor_packed(xw, qs, np.packbits(hit, axis=1), unique)
        elif kind == "Z_ERROR":
            _, qs, p, unique = step
            hit = draw(qs.size) < p
            _xor_packed(zw, qs, np.packbits(hit, axis=1), unique)
        elif kind == "Y_ERROR":
            _, qs, p, unique = step
            hit = draw(qs.size) < p
            packed = np.packbits(hit, axis=1)
            _xor_packed(xw, qs, packed, unique)
            _xor_packed(zw, qs, packed, unique)
        elif kind == "DEPOLARIZE1":
            _, qs, p, unique = step
            # [0, p) split in thirds X/Y/Z, same comparisons as the
            # reference sampler on the same (targets, shots) draw.
            block = draw(qs.size)
            x_hit = block < 2 * p / 3
            z_hit = (block >= p / 3) & (block < p)
            _xor_packed(xw, qs, np.packbits(x_hit, axis=1), unique)
            _xor_packed(zw, qs, np.packbits(z_hit, axis=1), unique)
        elif kind == "DEPOLARIZE2":
            _, firsts, seconds, unique, p = step
            if p > 0:
                code = depolarize2_codes(draw(firsts.size), p)
                # Code bits are the four flip planes; np.packbits
                # treats any nonzero byte as a set bit.
                _xor_packed(xw, firsts, np.packbits(code & 8, axis=1), unique)
                _xor_packed(zw, firsts, np.packbits(code & 4, axis=1), unique)
                _xor_packed(xw, seconds, np.packbits(code & 2, axis=1), unique)
                _xor_packed(zw, seconds, np.packbits(code & 1, axis=1), unique)
        elif kind == "PAULI_CHANNEL_1":
            _, qs, cum, unique = step
            code = pauli_channel_codes(draw(qs.size), cum, PC1_CODE_TABLE)
            _xor_packed(xw, qs, np.packbits(code & 2, axis=1), unique)
            _xor_packed(zw, qs, np.packbits(code & 1, axis=1), unique)
        elif kind == "PAULI_CHANNEL_2":
            _, firsts, seconds, unique, cum = step
            code = pauli_channel_codes(draw(firsts.size), cum, PC2_CODE_TABLE)
            _xor_packed(xw, firsts, np.packbits(code & 8, axis=1), unique)
            _xor_packed(zw, firsts, np.packbits(code & 4, axis=1), unique)
            _xor_packed(xw, seconds, np.packbits(code & 2, axis=1), unique)
            _xor_packed(zw, seconds, np.packbits(code & 1, axis=1), unique)
        else:  # pragma: no cover - execute_steps routes only noise kinds
            raise ValueError(f"unknown noise step kind {step[0]!r}")

    return apply


def injection_noise(
    injections: Iterable[Tuple[np.ndarray, ...]]
) -> NoiseHandler:
    """Noise handler XORing precomputed deterministic flips, one per step.

    Each injection is ``(x_rows, x_bytes, x_masks, z_rows, z_bytes, z_masks)``
    scattering single bits into the packed X/Z planes.  DEM extraction
    uses this to propagate every error mechanism as one packed bit
    *column*: the deterministic steps conjugate all mechanisms at once
    and each noise step, instead of drawing, plants its mechanisms' Pauli
    flips at the channel's circuit position.
    """
    iterator = iter(injections)

    def apply(step: tuple, xw: np.ndarray, zw: np.ndarray) -> None:
        x_rows, x_bytes, x_masks, z_rows, z_bytes, z_masks = next(iterator)
        if x_rows.size:
            np.bitwise_xor.at(xw, (x_rows, x_bytes), x_masks)
        if z_rows.size:
            np.bitwise_xor.at(zw, (z_rows, z_bytes), z_masks)

    return apply


def draw_count(steps: Sequence[tuple], shots: int) -> int:
    """Uniform doubles :func:`sampling_noise` consumes over these steps.

    Mirrors the handler's dispatch exactly, including the ``DEPOLARIZE2``
    ``p > 0`` guard (a zero-probability channel draws nothing); the fused
    pre-draw of a periodic program sizes its buffers with this.
    """
    total = 0
    for step in steps:
        kind = step[0]
        if kind in _DRAWING_KINDS:
            total += step[1].size * shots
        elif kind == "DEPOLARIZE2":
            if step[4] > 0:
                total += step[1].size * shots
    return total


def _xor_packed(
    frame: np.ndarray, qs: np.ndarray, packed: np.ndarray, unique: bool
) -> None:
    """XOR packed hit rows into frame rows, safely on repeated targets."""
    if unique:
        frame[qs] ^= packed
    else:
        np.bitwise_xor.at(frame, qs, packed)


def pauli_channel_codes(
    draw: np.ndarray, cumulative: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Biased-channel outcomes as frame-flip bit codes from one draw.

    ``cumulative`` holds the channel's cumulative outcome probabilities
    (``np.cumsum`` of the per-Pauli ``args``); outcome ``k`` fires when
    the uniform lands in ``[cum[k-1], cum[k])``, and a draw past the last
    boundary is a miss, mapped by the lookup ``table``'s trailing identity
    entry to code 0 (no flips).  Both the reference and the compiled
    sampler call this helper on the same ``(targets, shots)`` draw, which
    is what keeps their outputs bit-identical.
    """
    return table[np.searchsorted(cumulative, draw, side="right")]


def depolarize2_codes(draw: np.ndarray, p: float) -> np.ndarray:
    """Two-qubit depolarizing outcomes as frame-flip bit codes.

    One uniform stream drives both the hit decision and the Pauli-pair
    outcome: conditioned on ``draw < p`` (the channel firing),
    ``draw / p`` is uniform on [0, 1), so ``1 + floor(draw * 15 / p)`` is
    uniform over 1..15 -- the 15 non-identity two-qubit Paulis, encoded so
    the code's bits *are* the four frame-flip planes:

        bit 3 = X flip on the first qubit   (code & 8)
        bit 2 = Z flip on the first qubit   (code & 4)
        bit 1 = X flip on the second qubit  (code & 2)
        bit 0 = Z flip on the second qubit  (code & 1)

    Misses (``draw >= p``) map to code 16, whose low four bits are all
    clear -- no flips -- so no separate hit mask is needed.  The draw
    buffer is consumed (scaled in place).  Both the reference and the
    compiled sampler call this helper on the same draw, which is what
    keeps their outputs bit-identical.
    """
    np.multiply(draw, 15.0 / p, out=draw)
    np.minimum(draw, 15.0, out=draw)
    code = draw.astype(np.uint8)
    code += 1
    return code


def transpose_packed(planes: np.ndarray, count: int) -> np.ndarray:
    """Re-pack ``(rows, ceil(count/8))`` bitplanes as per-item keys.

    Args:
        planes: bit-packed matrix whose packed axis holds ``count`` items.
        count: number of valid bits along the packed axis (trailing pad
            bits are discarded).

    Returns:
        C-contiguous ``(count, ceil(rows/8))`` uint8 array: item ``i``'s
        row holds the original column ``i`` bit-packed -- e.g. shot-major
        detector keys ready for dedup, from detector-major sample
        bitplanes.
    """
    rows = planes.shape[0]
    if rows == 0:
        return np.zeros((count, 0), dtype=np.uint8)
    bits = np.unpackbits(planes, axis=1, count=count)
    # Packing the transposed view yields Fortran order; row keys (the
    # dedup's fixed-width void view) need each row contiguous.
    return np.ascontiguousarray(np.packbits(bits.T, axis=1))
