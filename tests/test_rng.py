"""Coin bytes, raw words and uniform blocks against the uniforms of the whole run,
and the parallel draw against the stream itself."""

import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import rng
from qsim.rng import shot_uniforms, stream

_BLOCK = rng._COIN_BLOCK_DRAWS


@pytest.mark.parametrize(
    "shots, draws",
    [
        (1, 0),
        (7, 0),
        (1, 1),
        (1, 64),
        (2 * (_BLOCK // 64), 64),  # whole blocks
        (3 * (_BLOCK // 64) + 5, 64),  # a partial last block
        (3 * (_BLOCK // 1000) + 1, 1000),
        (3 * (_BLOCK // 3) + 2, 3),  # blocks starting mid counter step
        (3, _BLOCK + 1),  # one shot per block
        (_BLOCK + 3, 1),
    ],
)
@pytest.mark.parametrize("seed", [0, 2**63 + 5])
def test_coin_rows_are_thresholded_transposed_uniforms(seed, shots, draws):
    # the coin form draws its raw words a bounded block of shots at a
    # time; across the block edges, each draw's coins (the unpacked bytes,
    # transposed to one row per draw) are its thresholded uniforms
    coins = shot_uniforms(seed, shots, draws, coins=True)
    assert coins.dtype == np.uint8 and coins.flags.c_contiguous
    assert coins.shape == (shots, (draws + 7) // 8)
    bits = np.unpackbits(coins, axis=1, count=draws, bitorder="little").T
    want = (shot_uniforms(seed, shots, draws) >= 0.5).T.astype(np.uint8)
    assert np.array_equal(bits, want)


@pytest.mark.parametrize("draws", [1, 3, 4, 7, 64])
@pytest.mark.parametrize("first_shot", [0, 1, 2, 3, 5, 1000])
def test_uniform_blocks_continue_the_stream(first_shot, draws):
    whole = shot_uniforms(9, first_shot + 6, draws)
    block = shot_uniforms(9, 6, draws, first_shot=first_shot)
    assert np.array_equal(block, whole[first_shot:])


@pytest.mark.parametrize("draws", [1, 3, 5, 63, 65])
@pytest.mark.parametrize("first_shot", [0, 1, 3, 1001])
@pytest.mark.parametrize("shots", [1, 7, 33])
def test_coin_bytes_are_top_bits_of_the_uniforms(shots, first_shot, draws):
    # numpy makes a uniform from one raw word as (raw >> 11) * 2**-53, so
    # u >= 1/2 exactly where the raw word's top bit is set; the bytes are
    # packed eight coins to a byte, the padding bits zero
    got = shot_uniforms(5, shots, draws, first_shot=first_shot, coins=True)
    want = shot_uniforms(5, shots, draws, first_shot=first_shot) >= 0.5
    assert got.dtype == np.uint8 and got.shape == (shots, (draws + 7) // 8)
    bits = np.unpackbits(got, axis=1, bitorder="little")
    assert np.array_equal(bits[:, :draws], want) and not bits[:, draws:].any()


def _raw_words(seed: int, shots: int, draws: int, first_shot: int) -> np.ndarray:
    """The contract's raw words for a block of shots, straight from the stream."""
    words = stream(seed).bit_generator.random_raw((first_shot + shots) * draws)
    return words[first_shot * draws :].reshape(shots, draws)


@pytest.mark.parametrize("draws", [0, 1, 3, 5])
@pytest.mark.parametrize("first_shot", [0, 1, 3])
def test_raw_words_make_the_uniforms(first_shot, draws):
    raw = _raw_words(7, 5, draws, first_shot)
    u = shot_uniforms(7, 5, draws, first_shot=first_shot)
    assert raw.dtype == np.uint64 and raw.shape == u.shape == (5, draws)
    assert np.array_equal((raw >> np.uint64(11)) * 2.0**-53, u)
    bits = np.unpackbits(shot_uniforms(7, 5, draws, first_shot=first_shot, coins=True),
                         axis=1, count=draws, bitorder="little")
    assert np.array_equal(bits, raw >> np.uint64(63))


@st.composite
def draw_shapes(draw):
    """(shots, draws_per_shot, first_shot) whose stream prefix stays a few blocks long."""
    draws = draw(st.one_of(st.sampled_from([0, 1, 3]), st.integers(0, 130),
                           st.integers(_BLOCK + 1, _BLOCK + 70)))
    cap = max(3, 3 * _BLOCK // max(draws, 1))
    return draw(st.integers(0, cap)), draws, draw(st.integers(0, cap))


@settings(max_examples=120, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1)),
       shape=draw_shapes(), workers=st.integers(1, 8))
def test_draw_does_not_depend_on_the_thread_count(seed, shape, workers):
    # shot i's draws are words [i * d, (i + 1) * d) of stream(seed),
    # however many threads fill the shot ranges (empty ranges included)
    shots, draws, first_shot = shape
    with mock.patch.object(rng, "_workers", lambda shots, words: workers):
        u = shot_uniforms(seed, shots, draws, first_shot=first_shot)
        coins = shot_uniforms(seed, shots, draws, first_shot=first_shot, coins=True)
    whole = stream(seed).random((first_shot + shots) * draws)
    assert u.dtype == np.float64 and u.shape == (shots, draws)
    assert np.array_equal(u.ravel(), whole[first_shot * draws :])
    assert coins.dtype == np.uint8 and coins.shape == (shots, (draws + 7) // 8)
    bits = np.unpackbits(coins, axis=1, bitorder="little")
    raw = _raw_words(seed, shots, draws, first_shot)
    assert np.array_equal(bits[:, :draws], raw >> np.uint64(63))
    assert not bits[:, draws:].any()


_SHOTS, _DRAWS = 20_000, 64  # 19.5 blocks of raw words: above the thread threshold


def test_draw_threads_start_once_and_leave_none_behind(monkeypatch):
    entries, starts = [], []
    draw, start = rng.shot_uniforms, threading.Thread.start

    def counted_draw(*args, **kwargs):
        entries.append(threading.get_ident())
        return draw(*args, **kwargs)

    def counted_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(rng, "shot_uniforms", counted_draw)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    workers = rng._workers(_SHOTS, _SHOTS * _DRAWS)
    before = threading.active_count()
    for coins in (True, False):
        entries.clear()
        starts.clear()
        got = rng.shot_uniforms(3, _SHOTS, _DRAWS, coins=coins)
        assert entries == [threading.get_ident()]
        assert len(starts) == workers - 1 and not any(t.is_alive() for t in starts)
        assert threading.active_count() == before
        with mock.patch.object(rng, "_workers", lambda shots, words: 1):
            assert np.array_equal(got, draw(3, _SHOTS, _DRAWS, coins=coins))


def test_many_threads_with_frequent_switches_draw_the_same_bits(monkeypatch):
    # more threads than cores, switching every microsecond: the disjoint
    # rows must still come out as one thread draws them
    monkeypatch.setattr(rng, "_workers", lambda shots, words: 1)
    alone = {coins: shot_uniforms(8, _SHOTS, _DRAWS, coins=coins) for coins in (True, False)}
    monkeypatch.setattr(rng, "_workers", lambda shots, words: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for coins, want in alone.items():
            assert np.array_equal(shot_uniforms(8, _SHOTS, _DRAWS, coins=coins), want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", [0, 2])
def test_a_failing_range_is_raised_after_every_thread_joins(monkeypatch, failing):
    # with 4 ranges, range `failing` raises at once while the others are
    # still drawing; the draw re-raises only after all of them finished
    fill, finished = rng._fill, []
    bounds = [_SHOTS * j // 4 for j in range(5)]

    def slow_or_failing(out, seed, draws_per_shot, first_shot, lo, hi, block):
        if lo == bounds[failing]:
            raise ValueError(f"range {failing}")
        time.sleep(0.1)
        fill(out, seed, draws_per_shot, first_shot, lo, hi, block)
        finished.append(lo)

    monkeypatch.setattr(rng, "_workers", lambda shots, words: 4)
    monkeypatch.setattr(rng, "_fill", slow_or_failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"range {failing}"):
        shot_uniforms(3, _SHOTS, _DRAWS, coins=True)
    assert sorted(finished) == [b for j, b in enumerate(bounds[:4]) if j != failing]
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_coin_draw_memory_is_bounded(monkeypatch, workers):
    # 10^5 shots of 64 coins: 800 KB of coin bytes, and at most one block
    # of raw words (512 KB) in flight over all threads together
    monkeypatch.setattr(rng, "_workers", lambda shots, words: workers)
    shot_uniforms(1, 2, 64, coins=True)  # numpy imports some modules on a first draw
    tracemalloc.start()
    try:
        coins = shot_uniforms(1, 10**5, 64, coins=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coins.nbytes == 800_000
    assert peak <= 2 * 2**20
