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
least 1/2, and reads them per measurement across shots
(:func:`shot_coins`, one contiguous row per draw).  ``shot_coins`` asks
``shot_uniforms`` for blocks of whole shots, each starting at its first
shot's counter block, and keeps only the thresholded, transposed
block: the coins equal the thresholded uniforms of the whole run bit for
bit, and the ``(shots, draws)`` float matrix never exists.
"""

from __future__ import annotations

import numpy as np

RNG_ID = "philox4x64-10"

_MASK64 = (1 << 64) - 1
_COIN_BLOCK_DRAWS = 1 << 16  # uniforms held at once by shot_coins (512 KB)


def stream(seed: int, stream_index: int = 0) -> np.random.Generator:
    """Generator number ``stream_index`` of the family keyed by ``seed``."""
    key = np.array([seed & _MASK64, stream_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def shot_uniforms(
    seed: int, shots: int, draws_per_shot: int, *, first_shot: int = 0
) -> np.ndarray:
    """Uniform draws for ``shots`` shots of a run, one row per shot.

    Row ``i`` holds exactly the draws shot ``first_shot + i`` consumes, in
    op order, so a run's uniforms may be drawn in blocks of shots.
    """
    if draws_per_shot == 0:
        return np.zeros((shots, 0))
    gen = stream(seed)
    skip = first_shot * draws_per_shot
    gen.bit_generator.advance(skip // 4)  # one Philox counter step yields 4 words
    gen.bit_generator.random_raw(skip % 4)
    return gen.random((shots, draws_per_shot))


def shot_coins(seed: int, shots: int, draws_per_shot: int) -> np.ndarray:
    """Coin bits for a whole run, one contiguous row per draw.

    A ``(draws_per_shot, shots)`` uint8 array whose entry ``[k, i]`` is 1
    exactly where ``shot_uniforms(seed, shots, draws_per_shot)[i, k]`` is
    at least 1/2.
    """
    coins = np.empty((draws_per_shot, shots), dtype=np.uint8)
    if draws_per_shot == 0:
        return coins
    block = max(1, _COIN_BLOCK_DRAWS // draws_per_shot)
    for start in range(0, shots, block):
        k = min(block, shots - start)
        u = shot_uniforms(seed, k, draws_per_shot, first_shot=start)
        coins[:, start : start + k] = (u >= 0.5).T
    return coins
