"""Coin rows and uniform blocks against the uniforms of the whole run."""

import numpy as np
import pytest

from qsim import rng
from qsim.rng import shot_coins, shot_uniforms

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
    coins = shot_coins(seed, shots, draws)
    want = (shot_uniforms(seed, shots, draws) >= 0.5).T.astype(np.uint8)
    assert coins.dtype == np.uint8 and coins.flags.c_contiguous
    assert coins.shape == (draws, shots)
    assert np.array_equal(coins, want)


@pytest.mark.parametrize("draws", [1, 3, 4, 7, 64])
@pytest.mark.parametrize("first_shot", [0, 1, 2, 3, 5, 1000])
def test_uniform_blocks_continue_the_stream(first_shot, draws):
    whole = shot_uniforms(9, first_shot + 6, draws)
    block = shot_uniforms(9, 6, draws, first_shot=first_shot)
    assert np.array_equal(block, whole[first_shot:])
