"""The per-shot decode loop that batched, deduplicated decoding replaced.

:func:`decode_per_shot` calls ``decoder.decode`` once per syndrome row,
with no deduplication and no batch path.  Tests hold ``decode_batch`` /
``decode_packed`` to it row for row, and the decode-engine bench times
it as the historical per-shot baseline.
"""

from __future__ import annotations

import numpy as np


def decode_per_shot(decoder, syndromes: np.ndarray) -> np.ndarray:
    """Decode each row of ``syndromes`` on its own.

    Args:
        decoder: any :class:`repro.decoder.base.Decoder`.
        syndromes: uint8 array of shape (shots, num_detectors).

    Returns:
        uint8 array of shape (shots, num_observables).
    """
    syndromes = np.asarray(syndromes, dtype=np.uint8)
    out = np.zeros((syndromes.shape[0], decoder.num_observables), dtype=np.uint8)
    for i, row in enumerate(syndromes):
        out[i] = decoder.decode(row)
    return out
