"""What a sampling run returns, shared by both backends.

Histogram keys are classical-bit strings, bit 0 first, with ``0``
recording the +1 outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class RunResult:
    backend: str
    shots: int
    seed: int
    rng_id: str
    counts: dict[str, int]
    final_state: object | None = None

    @property
    def final_state_available(self) -> bool:
        return self.final_state is not None


def histogram(parts: Iterable[tuple[np.ndarray, np.ndarray]]) -> dict[str, int]:
    """Counts keyed by bit string, sorted by key.

    Each part is a ``(rows, n_cbits)`` array of 0/1 classical registers,
    in any memory layout (the tableau backend passes the transpose of
    its per-bit rows, which is copied once into row order), and the
    number of shots that ended in each row.  Rows are packed eight bits
    to a byte, bit 0 in the top bit of the first byte, and grouped by
    ``np.unique`` on the packed rows viewed as opaque byte strings; for
    keys of equal length that byte order is the bit strings' order.
    ``'0'``/``'1'`` strings are built only for the distinct rows.
    """
    bits_parts, weight_parts = zip(*parts)
    weights = np.concatenate(weight_parts).astype(np.int64)
    m = bits_parts[0].shape[1]
    if m == 0:  # no register: every shot has the empty key
        return {"": int(weights.sum())}
    packed = np.concatenate([np.packbits(np.ascontiguousarray(b), axis=1) for b in bits_parts])
    keys, inverse = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse, weights)
    rows = np.unpackbits(keys.view(np.uint8).reshape(keys.shape + packed.shape[1:]), axis=1, count=m)
    rows += ord("0")
    strings = rows.view(f"S{m}").ravel().tolist()
    return {k.decode("ascii"): c for k, c in zip(strings, counts.tolist())}
