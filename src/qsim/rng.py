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
shots are independent and can be generated in any order or in parallel
without changing a single bit of the output.

:func:`shot_uniforms` draws a run's shots in parallel: a draw of at least
two blocks of ``_COIN_BLOCK_DRAWS`` words is split into contiguous shot
ranges, one per core this process may use, and each range is filled by
its own thread from one generator positioned at the range's first shot.
numpy's Philox releases the GIL while it draws, and the ranges write
disjoint rows, so the output does not depend on the number of threads.
The calling thread fills the first range and joins every other before
it returns.

The dense backend compares each draw with a branch probability, so it
takes the uniforms themselves, one row per shot.  The tableau backend
only needs fair coins, bit 1 where a draw is at least 1/2.  numpy makes
a uniform from one raw 64-bit Philox word as ``(raw >> 11) * 2**-53``,
so that coin is exactly the raw word's top bit: the coin form
(``shot_uniforms(..., coins=True)``) draws the raw words a bounded
block of shots at a time and packs their top bits, eight coins to a
byte, with no float ever made.  The blocks of all ranges together hold
at most ``_COIN_BLOCK_DRAWS`` raw words (or one shot per range) at once.
"""

from __future__ import annotations

import os
import threading

import numpy as np

RNG_ID = "philox4x64-10"

_MASK64 = (1 << 64) - 1
_TOP = np.uint64(1 << 63)
_COIN_BLOCK_DRAWS = 1 << 16  # raw words held at once by the coin form (512 KB)


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


def _workers(shots: int, words: int) -> int:
    """Threads for a pass over ``shots`` shots that touches ``words``
    words: one per usable core, one block of ``_COIN_BLOCK_DRAWS`` words
    each, one shot at least."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, shots, words // _COIN_BLOCK_DRAWS))


def _fill(
    out: np.ndarray, seed: int, draws_per_shot: int, first_shot: int, lo: int, hi: int, block: int
) -> None:
    """Fill rows ``lo:hi`` of ``out`` from one generator positioned at row ``lo``.

    A float ``out`` gets the uniforms in one pass.  A uint8 ``out`` gets
    the packed coins, its raw words drawn ``block`` words (or one shot) at
    a time.
    """
    if hi <= lo or not draws_per_shot:
        return
    gen = _at_shot(seed, first_shot + lo, draws_per_shot)
    if out.dtype != np.uint8:
        gen.random(out=out[lo:hi])
        return
    step = max(1, block // draws_per_shot)
    for start in range(lo, hi, step):
        k = min(step, hi - start)
        raw = gen.bit_generator.random_raw(k * draws_per_shot).reshape(k, draws_per_shot)
        out[start : start + k] = np.packbits(raw >= _TOP, axis=1, bitorder="little")


def shot_uniforms(
    seed: int, shots: int, draws_per_shot: int, *, first_shot: int = 0, coins: bool = False
) -> np.ndarray:
    """Uniform draws for ``shots`` shots of a run, one row per shot.

    Row ``i`` holds exactly the draws shot ``first_shot + i`` consumes, in
    op order, so a run's uniforms may be drawn in blocks of shots.  With
    ``coins``, the rows hold the draws' coins instead: a
    ``(shots, ceil(draws_per_shot / 8))`` uint8 array whose bit ``k & 7``
    of byte ``k >> 3`` in row ``i`` is 1 exactly where uniform ``[i, k]``
    is at least 1/2, that is where its raw word has the top bit set; the
    padding bits are 0.
    """
    if coins:
        out = np.empty((shots, (draws_per_shot + 7) >> 3), dtype=np.uint8)
    else:
        out = np.empty((shots, draws_per_shot))
    count = _workers(shots, shots * draws_per_shot)
    block = max(1, _COIN_BLOCK_DRAWS // count)
    in_shot_ranges(lambda lo, hi: _fill(out, seed, draws_per_shot, first_shot, lo, hi, block),
                   shots, count)
    return out


def in_shot_ranges(fill, shots: int, workers: int) -> None:
    """Call ``fill(lo, hi)`` on ``workers`` contiguous ranges that cover
    ``range(shots)``: the calling thread fills the first range and one
    thread each the others, all joined before this returns; the first
    exception a range raised is re-raised.  ``fill`` must write only its
    own range, so the output does not depend on ``workers``."""
    bounds = [shots * j // workers for j in range(workers + 1)]
    failures: list[BaseException] = []

    def work(lo: int, hi: int) -> None:
        try:
            fill(lo, hi)
        except BaseException as exc:  # re-raised by the calling thread
            failures.append(exc)

    threads = []
    try:
        for j in range(1, workers):
            thread = threading.Thread(target=work, args=(bounds[j], bounds[j + 1]))
            thread.start()
            threads.append(thread)
        fill(bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
