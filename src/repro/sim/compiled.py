"""Compiled, bit-packed circuit programs for the Pauli-frame sampler.

A direct Pauli-frame interpreter stores one uint8 per (shot, qubit) and
walks every op target in a Python loop, so its cost is
O(ops * targets * shots) interpreted work over a byte-per-bit
representation.  This module closes that gap the way SIMD-style
stabilizer samplers do:

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
  detector extraction is one sorted XOR-reduce (:class:`RecordMap`) at
  the end of the pass instead of per-op column loops.
* **Sparse noise draws** -- a noise step never draws per noise location.
  It samples only the faults that fire (:func:`draw_faults`): a hit
  count, a uniform subset of (target, shot) positions, and one outcome
  per hit.  Its cost scales with the faults, not with targets x shots:
  at p=1e-3 a d=11 shot has ~10 faults but ~10^4 noise locations.  The
  hits are XOR-scattered as single bits into the packed planes
  (``(row, byte)`` plus a bit mask, the way :func:`injection_noise`
  plants DEM mechanisms), which stays exact on duplicate targets.  The
  byte-per-bit interpreter kept as a test oracle
  (``tests/oracles/frame_v1.py``) calls the same :func:`draw_faults` on
  the same stream, so for the same seed both produce *bit-identical*
  detector/observable samples; ``tests/test_sim_compiled.py``
  property-tests the equivalence.

Shot-major vs detector-major: frames pack shots along rows so gate ops are
contiguous; decoders key on per-shot syndromes.  :func:`transpose_packed`
converts between the two layouts once per sample at the decoder boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as _metrics
from repro.sim.circuit import Circuit
from repro.sim.ops import (
    CANONICAL_FRAME_GATE as _CANONICAL,
    DROPPED_BY_COMPILER as _DROPPED,
    FUSABLE as _FUSABLE,
    NOISE as _NOISE,
    NOISE_2Q as _NOISE_2Q,
    PAULI_1Q_CODES,
    PAULI_2Q_CODES,
)

# The sparse sampler's cost driver: one increment per sample call, by the
# faults that call drew.  Faults are a deterministic
# function of the shard seed, so shard deltas merge worker-count
# invariantly.
FAULTS = _metrics.counter(
    "repro_sim_faults_total",
    "Faults drawn by the Pauli-frame sampler (sparse noise draws).",
)

# Frame-flip code of a constant-outcome channel (bit 1 = X, bit 0 = Z).
_FIXED_CODE = {"X_ERROR": 2, "Y_ERROR": 3, "Z_ERROR": 1}
_EMPTY = np.zeros(0, dtype=np.intp)
# Slot bit masks as columns, per slot count: slot s is bit 1 << (slots-1-s).
_SLOT_BITS = {
    slots: (1 << np.arange(slots - 1, -1, -1, dtype=np.uint8))[:, None]
    for slots in (2, 4)
}


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """One noise op's fault distribution per target (qubit or pair).

    ``p`` is the probability that the channel fires on one target in one
    shot.  A firing's outcome is a frame-flip code from ``codes``: the
    only code when there is one (``X/Y/Z_ERROR``), uniform over them when
    ``boundaries`` is ``None`` (``DEPOLARIZE1/2``), else the outcome a
    uniform lands on between the interior ``boundaries`` of the
    normalised cumulative weights (``PAULI_CHANNEL_1/2``).

    Codes carry one bit per flip *slot*; slot ``s`` is bit
    ``1 << (slots - 1 - s)`` and flips plane ``s & 1`` (0 = X, 1 = Z) of
    target operand ``s >> 1``.  Single-qubit channels have slots
    (X, Z) -- :data:`~repro.sim.ops.PAULI_1Q_CODES` -- and pair channels
    (X first, Z first, X second, Z second) --
    :data:`~repro.sim.ops.PAULI_2Q_CODES`.
    """

    p: float
    codes: np.ndarray
    boundaries: Optional[np.ndarray]
    slots: int

    @classmethod
    def from_op(cls, op) -> "NoiseChannel":
        slots = 4 if op.name in _NOISE_2Q else 2
        if op.name in _FIXED_CODE:
            code = np.array([_FIXED_CODE[op.name]], np.uint8)
            return cls(float(op.arg), code, None, slots)
        codes = np.array(PAULI_2Q_CODES if slots == 4 else PAULI_1Q_CODES, np.uint8)
        if not op.args:  # DEPOLARIZE1/2: uniform over the outcomes
            return cls(float(op.arg), codes, None, slots)
        # PAULI_CHANNEL_1/2: outcome k fires with probability args[k].
        cumulative = np.cumsum(np.asarray(op.args, dtype=float))
        p = min(float(cumulative[-1]), 1.0)
        boundaries = cumulative[:-1] / p if p > 0 else cumulative[:-1]
        return cls(p, codes, boundaries, slots)


class Faults(NamedTuple):
    """A noise step's fired flips, one entry per (slot, target, shot) bit.

    ``count`` is the number of faults (channel firings) drawn; a firing
    contributes one entry per set bit of its outcome code.
    """

    count: int
    slot: np.ndarray
    target: np.ndarray
    shot: np.ndarray


def draw_faults(
    rng: np.random.Generator, channel: NoiseChannel, targets: int, shots: int
) -> Faults:
    """Sample the faults one noise step fires over ``targets x shots``.

    The draw contract, which defines the sampled stream (the compiled
    program calls this one function per noise step, in op order): over
    the flattened target-major
    ``(targets, shots)`` block of ``n = targets * shots`` positions,

    1. ``k = rng.binomial(n, p)`` faults (nothing is drawn when ``n == 0``);
    2. if ``k > 0``, their positions
       ``rng.choice(n, k, replace=False, shuffle=False)``, position
       ``i`` being target ``i // shots`` in shot ``i % shots``;
    3. one outcome per fault, in the order of step 2: nothing for a
       single-code channel, ``rng.integers(len(codes), size=k)`` for a
       uniform one, and ``np.searchsorted(boundaries, rng.random(k),
       side="right")`` for a weighted one.

    Returns the fired flips slot-major (all slot-0 bits, then slot 1, ...).
    """
    n = targets * shots
    if n == 0:
        return Faults(0, _EMPTY, _EMPTY, _EMPTY)
    k = int(rng.binomial(n, channel.p))
    if k == 0:
        return Faults(0, _EMPTY, _EMPTY, _EMPTY)
    positions = rng.choice(n, k, replace=False, shuffle=False)
    codes = channel.codes
    if codes.size == 1:
        code = np.broadcast_to(codes, (k,))
    elif channel.boundaries is None:
        code = codes[rng.integers(codes.size, size=k)]
    else:
        code = codes[
            np.searchsorted(channel.boundaries, rng.random(k), side="right")
        ]
    target, shot = np.divmod(positions, shots)
    slot, fault = np.nonzero(code & _SLOT_BITS[channel.slots])
    return Faults(k, slot, target[fault], shot[fault])


def noise_sites(op) -> np.ndarray:
    """A noise op's target operands as an ``(operands, targets)`` array.

    Row 0 holds the qubits (single-qubit channels) or the first qubits of
    the pairs; row 1 the pairs' second qubits.  Flip slot ``s`` of
    :class:`NoiseChannel` lands on ``sites[s >> 1]``.
    """
    qubits = _index_array(op.targets)
    if op.name in _NOISE_2Q:
        return np.stack([qubits[0::2], qubits[1::2]])
    return qubits[None, :]


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
        if name in _NOISE:
            flush()
            steps.append((name, noise_sites(op), NoiseChannel.from_op(op)))
            continue
        if name not in _FUSABLE:
            # Unsupported ops (non-Clifford gates) fail loudly, never
            # sample wrong -- and never yield a wrong DEM either, since
            # extract_dem propagates mechanisms on this same program.
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
        self.detector_map = RecordMap(
            segment.det_meas, segment.det_row, self.num_detectors
        )
        self.observable_map = RecordMap(
            segment.obs_meas, segment.obs_row, self.num_observables
        )

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
        frames = zero_planes(2 * self.num_qubits, shots)
        flips = zero_planes(self.num_measurements, shots)
        noise = FaultSampler(rng, shots, frames)
        execute_steps(self.steps, frames, flips, noise)
        if _metrics.enabled():
            FAULTS.inc(noise.faults)

        words = (shots + 7) // 8
        detectors = self.detector_map.apply(flips)
        observables = self.observable_map.apply(flips)
        return detectors[:, :words], observables[:, :words]


class RecordMap:
    """Sparse GF(2) map from measurement-flip rows to output rows.

    Built from COO pairs -- measurement record ``meas[i]`` feeds output
    row ``rows[i]`` (a detector or an observable).  The pairs are sorted
    by output row once, so :meth:`apply` is one gather of the flip rows
    plus one ``np.bitwise_xor.reduceat`` over uint64 words, instead of an
    unbuffered per-entry XOR scatter.
    """

    def __init__(self, meas: np.ndarray, rows: np.ndarray, num_rows: int) -> None:
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        self._meas = meas[order]
        self._starts = np.flatnonzero(np.diff(sorted_rows, prepend=-1))
        self._rows = sorted_rows[self._starts]
        self.num_rows = num_rows

    def apply(self, flips: np.ndarray) -> np.ndarray:
        """``(num_rows, padded)`` output planes from padded flip planes."""
        out = np.zeros((self.num_rows, flips.shape[1]), dtype=np.uint8)
        if self._meas.size:
            out.view(np.uint64)[self._rows] = np.bitwise_xor.reduceat(
                flips.view(np.uint64)[self._meas], self._starts, axis=0
            )
        return out


# -- step execution ------------------------------------------------------------

# Step kinds that are stochastic channels (step[0] for every noise step is
# the canonical op name, so the op table doubles as the step-kind table).
_NOISE_KINDS = frozenset(_NOISE)

NoiseHandler = Callable[[tuple], None]


def zero_planes(rows: int, count: int) -> np.ndarray:
    """Zeroed ``(rows, padded)`` bit-packed planes holding ``count`` bits.

    Bit ``j`` of byte ``w`` of a row is item ``8 w + j`` (``np.packbits``
    big bit order); rows are padded to whole uint64 words so they double
    as word views.
    """
    words = (count + 7) // 8
    return np.zeros((rows, 8 * ((words + 7) // 8)), dtype=np.uint8)


def execute_steps(
    steps: Sequence[tuple],
    frames: np.ndarray,
    flips: np.ndarray,
    noise: NoiseHandler,
    slot_offset: int = 0,
) -> None:
    """Interpret fused steps over packed planes with pluggable noise.

    ``frames`` stacks the X frame rows over the Z frame rows
    (``(2 * num_qubits, padded)``, see :func:`zero_planes`) and ``flips``
    holds one row per measurement record.  Deterministic steps update
    their uint64 word views in place; each noise step is delegated to
    ``noise(step)`` -- a sampler drawing faults (:class:`FaultSampler`)
    or a deterministic injector (:func:`injection_noise`, for DEM
    mechanism propagation).

    ``slot_offset`` shifts every measurement record slot, which is how a
    periodic program replays one lowered round body into successive
    record windows of the same ``flips`` plane.
    """
    num_qubits = frames.shape[0] // 2
    x64 = frames[:num_qubits].view(np.uint64)
    z64 = frames[num_qubits:].view(np.uint64)
    f64 = flips.view(np.uint64)
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
            noise(step)
        else:  # pragma: no cover - compile emits only the kinds above
            raise ValueError(f"unknown compiled step kind {kind!r}")


class FaultSampler:
    """Noise handler sampling each step's faults into packed frames.

    Every noise step ``(kind, sites, channel)`` draws its faults with
    :func:`draw_faults` and XOR-scatters each fired flip as one bit:
    slot ``s`` of a fault on target ``t`` in shot ``j`` toggles bit
    ``j % 8`` (most significant first) of byte ``j // 8`` in frame row
    ``sites[s >> 1, t] + (s & 1) * num_qubits`` (X rows, then Z rows).
    One unbuffered ``np.bitwise_xor.at`` over the flat planes applies a
    step, so repeated targets and coinciding flips stay exact.
    ``faults`` accumulates the faults drawn.
    """

    def __init__(
        self, rng: np.random.Generator, shots: int, frames: np.ndarray
    ) -> None:
        self._rng = rng
        self._shots = shots
        self._flat = frames.reshape(-1)
        self._stride = frames.shape[1]
        self._num_qubits = frames.shape[0] // 2
        self.faults = 0

    def __call__(self, step: tuple) -> None:
        _, sites, channel = step
        drawn = draw_faults(self._rng, channel, sites.shape[1], self._shots)
        if not drawn.count:
            return
        self.faults += drawn.count
        slot, shot = drawn.slot, drawn.shot
        rows = sites[slot >> 1, drawn.target] + (slot & 1) * self._num_qubits
        masks = np.right_shift(0x80, shot & 7).astype(np.uint8)
        np.bitwise_xor.at(self._flat, rows * self._stride + (shot >> 3), masks)


def injection_noise(
    injections: Iterable[Tuple[np.ndarray, ...]], frames: np.ndarray
) -> NoiseHandler:
    """Noise handler XORing precomputed deterministic flips, one per step.

    Each injection is ``(x_rows, x_bytes, x_masks, z_rows, z_bytes, z_masks)``
    scattering single bits into the X / Z halves of the stacked packed
    ``frames``.  DEM extraction uses this to propagate every error
    mechanism as one packed bit *column*: the deterministic steps
    conjugate all mechanisms at once and each noise step, instead of
    drawing, plants its mechanisms' Pauli flips at the channel's circuit
    position.
    """
    iterator = iter(injections)
    num_qubits = frames.shape[0] // 2

    def apply(step: tuple) -> None:
        x_rows, x_bytes, x_masks, z_rows, z_bytes, z_masks = next(iterator)
        if x_rows.size:
            np.bitwise_xor.at(frames, (x_rows, x_bytes), x_masks)
        if z_rows.size:
            np.bitwise_xor.at(frames, (z_rows + num_qubits, z_bytes), z_masks)

    return apply


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
    rows, words = planes.shape
    blocks = (rows + 7) // 8
    if rows % 8:
        padding = np.zeros((8 * blocks - rows, words), dtype=np.uint8)
        planes = np.concatenate([planes, padding])
    # Each 8-row x 8-item bit block is one uint64: rows 8b..8b+7 of byte
    # column w, row 8b as the most significant byte.  Three masked
    # delta-swaps transpose all blocks at once; read back most significant
    # byte first, byte j of block (b, w) is item 8w + j's key byte b.
    x = (
        planes.reshape(blocks, 8, words).transpose(0, 2, 1).copy()
        .view(">u8")[..., 0].astype(np.uint64)
    )
    for shift, mask in _TRANSPOSE_STEPS:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    keys = x.astype(">u8").view(np.uint8).reshape(blocks, 8 * words)
    # Row keys (the dedup's fixed-width void view) need each row contiguous.
    return np.ascontiguousarray(keys.T[:count])


# (shift, mask) delta-swaps of the 8x8 bit-matrix transpose in a uint64
# (Hacker's Delight, section 7-3).
_TRANSPOSE_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0),
    )
)
