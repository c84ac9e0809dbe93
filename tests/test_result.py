"""The shared histogram helper against a per-row Counter."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.result import histogram


@st.composite
def weighted_parts(draw):
    """Parts of (rows, m) bit rows with weights >= 1, drawn from a small
    pool of rows so that the same row repeats within and across parts."""
    m = draw(st.integers(0, 12))
    pool = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=1, max_size=5))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=20))
        weights = draw(st.lists(st.integers(1, 10**6), min_size=len(rows), max_size=len(rows)))
        parts.append((np.array(rows, dtype=np.uint8).reshape(len(rows), m),
                      np.array(weights, dtype=np.int64)))
    return parts


@settings(max_examples=100, deadline=None)
@given(parts=weighted_parts())
def test_histogram_matches_counter(parts):
    want: Counter = Counter()
    for rows, weights in parts:
        for row, w in zip(rows.tolist(), weights.tolist()):
            want["".join(map(str, row))] += w
    if parts[0][0].shape[1] == 0:
        want = Counter({"": sum(int(w.sum()) for _, w in parts)})
    got = histogram(iter(parts))
    assert got == dict(sorted(want.items()))
    assert list(got) == sorted(want)
    assert all(type(c) is int for c in got.values())
