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

    Each part is a ``(rows, n_cbits)`` uint8 array of classical registers
    and the number of shots that ended in each row.  Every row of
    ``'0'``/``'1'`` bytes is viewed as one fixed-width bytes key, so
    ``np.unique`` groups and sorts them (bytes order is str order for
    ASCII) with no per-row Python loop.
    """
    cbits_parts, weight_parts = zip(*parts)
    cbits = np.concatenate(cbits_parts)
    weights = np.concatenate(weight_parts).astype(np.int64)
    m = cbits.shape[1]
    if m == 0:  # no register: every shot has the empty key
        return {"": int(weights.sum())}
    chars = (cbits + ord("0")).astype(np.uint8)
    keys, inverse = np.unique(chars.view(f"S{m}").ravel(), return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse, weights)
    return {k.decode("ascii"): c for k, c in zip(keys.tolist(), counts.tolist())}
