"""Deterministic random streams.

Every sampled number in the package comes from Philox (the 4x64 variant,
10 rounds), a counter-based generator whose streams are cheap to derive,
splittable, and bit-reproducible across platforms.  ``RNG_ID`` names the
algorithm and is recorded in every ``RunResult`` so results can be
reproduced later.

Stream discipline for multi-shot runs: shot ``i`` of a run consumes the
contiguous counter block ``[i * d, (i + 1) * d)`` of the stream keyed by
the run seed, where ``d`` is the number of random draws a single shot
needs (one per measurement).  Blocks of distinct shots never overlap, so
shots are independent and could be generated in any order or in
parallel without changing a single bit of the output.

The dense backend compares each draw with a branch probability, so it
takes the uniforms themselves (:func:`shot_uniforms`, one row per shot).
The tableau backend only needs fair coins, bit 1 where a draw is at
least 1/2.  numpy makes a uniform from one raw 64-bit Philox word as
``(raw >> 11) * 2**-53``, so that coin is exactly the raw word's top bit:
:func:`shot_coin_bytes` takes the raw words (``shot_uniforms(...,
raw=True)``) a bounded block of shots at a time and packs their top
bits, eight coins to a byte, with no float ever made.
"""

from __future__ import annotations

import numpy as np

RNG_ID = "philox4x64-10"

_MASK64 = (1 << 64) - 1
_TOP = np.uint64(1 << 63)
_COIN_BLOCK_DRAWS = 1 << 16  # raw words held at once by shot_coin_bytes (512 KB)


def stream(seed: int, stream_index: int = 0) -> np.random.Generator:
    """Generator number ``stream_index`` of the family keyed by ``seed``."""
    key = np.array([seed & _MASK64, stream_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _at_shot(seed: int, first_shot: int, draws_per_shot: int) -> np.random.Generator:
    """The run's stream, positioned at shot ``first_shot``'s first draw."""
    gen = stream(seed)
    skip = first_shot * draws_per_shot
    gen.bit_generator.advance(skip // 4)  # one Philox counter step yields 4 words
    gen.bit_generator.random_raw(skip % 4)
    return gen


def shot_uniforms(
    seed: int, shots: int, draws_per_shot: int, *, first_shot: int = 0, raw: bool = False
) -> np.ndarray:
    """Uniform draws for ``shots`` shots of a run, one row per shot.

    Row ``i`` holds exactly the draws shot ``first_shot + i`` consumes, in
    op order, so a run's uniforms may be drawn in blocks of shots.  With
    ``raw``, the rows hold the raw 64-bit Philox words instead, as uint64:
    each uniform is its word's ``(raw >> 11) * 2**-53``.
    """
    if raw:
        gen = _at_shot(seed, first_shot, draws_per_shot).bit_generator
        return gen.random_raw(shots * draws_per_shot).reshape(shots, draws_per_shot)
    if draws_per_shot == 0:
        return np.zeros((shots, 0))
    return _at_shot(seed, first_shot, draws_per_shot).random((shots, draws_per_shot))


def shot_coin_bytes(
    seed: int, shots: int, draws_per_shot: int, *, first_shot: int = 0
) -> np.ndarray:
    """Coin bits for ``shots`` shots of a run, one row of bytes per shot.

    A ``(shots, ceil(draws_per_shot / 8))`` uint8 array: bit ``k & 7`` of
    byte ``k >> 3`` in row ``i`` is 1 exactly where
    ``shot_uniforms(seed, shots, draws_per_shot, first_shot=first_shot)[i, k]``
    is at least 1/2, that is where the draw's raw word has its top bit set.
    The raw words are drawn in blocks of whole shots, at most
    ``_COIN_BLOCK_DRAWS`` words (or one shot) at a time.
    """
    coins = np.empty((shots, (draws_per_shot + 7) >> 3), dtype=np.uint8)
    block = max(1, _COIN_BLOCK_DRAWS // max(1, draws_per_shot))
    for start in range(0, shots, block):
        k = min(block, shots - start)
        raw = shot_uniforms(seed, k, draws_per_shot, first_shot=first_shot + start, raw=True)
        coins[start : start + k] = np.packbits(raw >= _TOP, axis=1, bitorder="little")
    return coins
