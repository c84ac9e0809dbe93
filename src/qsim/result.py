"""What a sampling run returns, and the shot-block loop both backends share.

Histogram keys are classical-bit strings, bit 0 first, with ``0``
recording the +1 outcome.  A run's histogram is a :class:`Counts`: the
distinct rows and their counts stay numpy arrays, and ``str`` keys are
built only when the mapping is read key by key.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .rng import RNG_ID

_BATCH_BYTES = 1 << 27  # what a shot block may hold (~128 MB)


class Counts(Mapping[str, int]):
    """A read-only histogram, sorted by key, held as arrays.

    ``words`` is the ``(n_keys, ceil(m / 64))`` uint64 matrix of the
    distinct keys as :func:`count_keys` sorts them (bit j of a key at
    value bit ``63 - (j & 63)`` of word ``j >> 6``), in ascending key
    order, ``m`` the key width in bits and ``tallies`` the keys' int64
    counts.  :meth:`bits` unpacks a block of keys with one
    ``np.unpackbits`` over their bytes, so a run report is rendered and
    written a bounded block of keys at a time (:func:`qsim.cli.write_report`).
    ``len()`` reads the array length; lookups, iteration and comparison
    build the ``str -> int`` dict once, on first use, so iteration is
    sorted and values are Python ``int``.
    """

    __slots__ = ("words", "m", "tallies", "_dict")

    def __init__(self, words: np.ndarray, m: int, tallies: np.ndarray):
        words.flags.writeable = False
        tallies.flags.writeable = False
        self.words = words
        self.m = m
        self.tallies = tallies
        self._dict: dict[str, int] | None = None

    def bits(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Keys ``start`` to ``stop`` as a ``(keys, m)`` 0/1 uint8 matrix."""
        keys = self.words[start:stop].astype(">u8").view(np.uint8)
        return np.unpackbits(keys, axis=1, count=self.m)

    def _as_dict(self) -> dict[str, int]:
        if self._dict is None:
            m = self.m
            text = (self.bits() + ord("0")).tobytes().decode("ascii")
            self._dict = {text[i * m : i * m + m]: c for i, c in enumerate(self.tallies.tolist())}
        return self._dict

    def __len__(self) -> int:
        return len(self.tallies)

    def __getitem__(self, key: str) -> int:
        return self._as_dict()[key]

    def __iter__(self):
        return iter(self._as_dict())

    def __repr__(self) -> str:
        return f"Counts({self._as_dict()!r})"


@dataclass(frozen=True)
class RunResult:
    """One sampling run.  ``counts`` is a :class:`Counts` from either
    backend, or any ``str -> int`` mapping a caller builds; a ``Counts``
    is not a ``dict``, so ``json.dumps`` needs ``dict(result.counts)``."""

    backend: str
    shots: int
    seed: int
    rng_id: str
    counts: Mapping[str, int]
    final_state: object | None = None


def key_words(bits: np.ndarray) -> np.ndarray:
    """The ``(m, k)`` 0/1 matrix ``bits`` as ``(k, ceil(m / 64))`` key
    words, column c's row j at key bit j, laid out as :func:`count_keys`
    reads them."""
    kw = (len(bits) + 63) >> 6
    packed = np.zeros((8 * kw, bits.shape[1]), dtype=np.uint8)
    packed[: (len(bits) + 7) >> 3] = np.packbits(bits, axis=0)
    return packed.T.copy().view(">u8").astype(np.uint64)


def sample_blocks(backend: str, shots: int, seed: int, m: int, per_block: int,
                  block: Callable[[int, int], tuple], final: Callable[[], object]) -> RunResult:
    """Sample ``shots`` shots in blocks of at most ``per_block``.

    ``block(first_shot, count)`` returns those shots' ``m``-bit key words
    and each key's shot count (None for one each).  Each block is counted
    as it returns, and the blocks' counts are merged by one weighted
    :func:`count_keys`.  ``final()``, called last, is the final state."""
    blocks = (block(first, min(per_block, shots - first)) for first in range(0, shots, per_block))
    parts = [count_keys(words, m, weights) for words, weights in blocks]
    counts = parts[0] if len(parts) == 1 else count_keys(
        np.concatenate([p.words for p in parts]), m, np.concatenate([p.tallies for p in parts]))
    return RunResult(backend, shots, seed, RNG_ID, counts, final())


def count_keys(words: np.ndarray, m: int, weights: np.ndarray | None = None) -> Counts:
    """Counts of ``m``-bit keys held as ``(rows, ceil(m / 64))`` uint64 words.

    Bit ``j`` of a key is the value bit ``63 - (j & 63)`` of word
    ``j >> 6``, zero-padded: the words of big-endian bytes packed bit 0
    first, whose order is the bit strings' order.  Row ``i`` counts
    ``weights[i]`` shots, or one shot when ``weights`` is None.  The rows
    are sorted and cut where adjacent sorted rows differ.  One key word
    with unit weights, as every tableau run has, is sorted directly;
    otherwise an ``argsort`` (``lexsort`` from the last word to the first
    for wider keys) orders the rows and the weights, and
    ``np.add.reduceat`` sums each run's weights.
    """
    if m == 0:  # no register: every shot has the empty key
        total = len(words) if weights is None else weights.sum()
        return Counts(np.zeros((1, 1), dtype=np.uint64), 0, np.array([total], dtype=np.int64))
    if weights is None and words.shape[1] == 1:
        words = np.sort(words, axis=0)
    else:
        order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T[::-1])
        words = words[order]
        if weights is not None:
            weights = weights[order]
    first = np.ones(len(words), dtype=bool)  # first row of each run of equal rows
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    starts = first.nonzero()[0]
    if weights is None:
        tallies = np.diff(np.append(starts, len(words)))
    else:
        tallies = np.add.reduceat(weights, starts) if len(starts) else weights[:0]
    return Counts(words[starts], m, tallies)
