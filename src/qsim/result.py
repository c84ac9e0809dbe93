"""What a sampling run returns, shared by both backends.

Histogram keys are classical-bit strings, bit 0 first, with ``0``
recording the +1 outcome.
"""

from __future__ import annotations

from collections import Counter
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
    and the number of shots that ended in each row.
    """
    counter: Counter = Counter()
    for cbits, weights in parts:
        if cbits.shape[1] == 0:  # no register: skip the per-row loop
            counter[""] += int(weights.sum())
            continue
        chars = (cbits + ord("0")).astype(np.uint8)
        for row, w in zip(chars, weights.tolist()):
            counter[row.tobytes().decode("ascii")] += w
    return dict(sorted(counter.items()))
