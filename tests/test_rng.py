"""Coin bytes, raw words and uniform blocks against the uniforms of the whole run."""

import numpy as np
import pytest

from qsim import rng
from qsim.rng import shot_coin_bytes, shot_uniforms

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
    # shot_coin_bytes draws its raw words a bounded block of shots at a
    # time; across the block edges, each draw's coins (the unpacked bytes,
    # transposed to one row per draw) are its thresholded uniforms
    coins = shot_coin_bytes(seed, shots, draws)
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
    got = shot_coin_bytes(5, shots, draws, first_shot=first_shot)
    want = shot_uniforms(5, shots, draws, first_shot=first_shot) >= 0.5
    assert got.dtype == np.uint8 and got.shape == (shots, (draws + 7) // 8)
    bits = np.unpackbits(got, axis=1, bitorder="little")
    assert np.array_equal(bits[:, :draws], want) and not bits[:, draws:].any()


@pytest.mark.parametrize("draws", [0, 1, 3, 5])
@pytest.mark.parametrize("first_shot", [0, 1, 3])
def test_raw_words_make_the_uniforms(first_shot, draws):
    raw = shot_uniforms(7, 5, draws, first_shot=first_shot, raw=True)
    u = shot_uniforms(7, 5, draws, first_shot=first_shot)
    assert raw.dtype == np.uint64 and raw.shape == u.shape == (5, draws)
    assert np.array_equal((raw >> np.uint64(11)) * 2.0**-53, u)
