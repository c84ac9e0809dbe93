"""The shot-block merge against a per-row Counter, and the run report
written from its arrays against ``json.dumps``."""

import contextlib
import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import cli
from qsim.cli import _clean, _render_json, write_report
from qsim.result import Counts, RunResult, key_words, sample_blocks


def merged(parts) -> Counts:
    """The counts of ``parts``, each a ``(rows, m)`` array of 0/1 bits and
    the rows' weights, taken as one block each by :func:`sample_blocks`."""
    parts = list(parts)
    block = lambda first, count: (key_words(parts[first][0].T), parts[first][1])
    return sample_blocks("sv", len(parts), 0, parts[0][0].shape[1], 1, block, lambda: None).counts


@st.composite
def weighted_parts(draw):
    """Parts of (rows, m) bit rows with weights >= 1, drawn from a small
    pool of rows so that the same row repeats within and across parts.
    Widths run past 64 bits and need not fill whole bytes; a part is
    row-major as the dense backend builds it, or the transpose of a
    per-bit (m, rows) matrix as the tableau backend passes it."""
    m = draw(st.one_of(st.integers(0, 12), st.integers(13, 150)))
    pool = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=1, max_size=5))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=20))
        weights = draw(st.lists(st.integers(1, 10**6), min_size=len(rows), max_size=len(rows)))
        bits = np.array(rows, dtype=np.uint8).reshape(len(rows), m)
        if draw(st.booleans()):
            bits = np.ascontiguousarray(bits.T).T
        parts.append((bits, np.array(weights, dtype=np.int64)))
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
    got = merged(iter(parts))
    assert got == dict(sorted(want.items()))
    assert list(got) == sorted(want)
    assert all(type(c) is int for c in got.values())


@st.composite
def many_key_parts(draw):
    """Parts as :func:`weighted_parts` draws them, over a pool of up to 80
    rows, so that reports hold from 1 to 80 keys, with weights of 1 to
    13 digits mixed in one histogram.  Rows and weights come from a
    drawn numpy seed: drawing 80 rows of 150 bits bit by bit would
    overrun hypothesis' data budget."""
    m = draw(st.one_of(st.integers(0, 12), st.integers(13, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, 2, (draw(st.integers(1, 80)), m), dtype=np.uint8)
    top = 10 ** draw(st.integers(0, 12))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        bits = pool[rng.integers(0, len(pool), draw(st.integers(0, 60)))]
        weights = rng.integers(1, top + 1, len(bits)) // rng.choice([1, 10, 10**6], len(bits)) + 1
        if draw(st.booleans()):
            bits = np.ascontiguousarray(bits.T).T
        parts.append((bits, weights))
    return parts


def _reference(parts) -> dict[str, int]:
    want: Counter = Counter()
    for rows, weights in parts:
        for row, w in zip(rows.tolist(), weights.tolist()):
            want["".join(map(str, row))] += w
    if parts[0][0].shape[1] == 0:
        want = Counter({"": sum(int(w.sum()) for _, w in parts)})
    return dict(sorted(want.items()))


@settings(max_examples=150, deadline=None)
@given(parts=many_key_parts(), backend=st.sampled_from(["sv", "stab"]),
       shots=st.integers(1, 10**9), seed=st.integers(0, 2**63 - 1))
def test_counts_report_and_mapping(parts, backend, shots, seed, tmp_path_factory):
    want = _reference(parts)
    got = merged(iter(parts))
    assert isinstance(got, Counts)
    assert len(got) == len(want)
    assert got._dict is None  # len() reads the arrays; no str keys built

    out = tmp_path_factory.mktemp("report") / "run.json"
    write_report(RunResult(backend, shots, seed, "philox4x64-10", got), "json", str(out))
    payload = {"backend": backend, "shots": shots, "seed": seed, "rng_id": "philox4x64-10",
               "counts": want}
    assert out.read_text() == json.dumps(_clean(payload), sort_keys=True, indent=2) + "\n"
    # the file gets the counts as bytes, stdout as text: the same report
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        write_report(RunResult(backend, shots, seed, "philox4x64-10", got), "json", None)
    assert stdout.getvalue() == out.read_text()

    assert list(got) == sorted(want)
    assert all(type(c) is int for c in got.values())
    assert got == want and want == got
    assert not (got != want) and not (want != got)
    assert dict(got) == want and list(dict(got)) == list(want)
    assert got == merged(iter(parts))
    if want:
        key = next(iter(want))
        assert key in got and got[key] == want[key] and got.get(key + "x") is None


@pytest.mark.parametrize("block_bytes", [1, 100, 300])
def test_report_blocks_match_render_json(monkeypatch, tmp_path, block_bytes):
    # A report rendered one, two or eight entries to a block: every entry
    # but the very first opens with a comma, and each block pads its
    # counts to its own widest count before the padding is dropped.
    monkeypatch.setattr(cli, "_REPORT_BYTES", block_bytes)
    rng = np.random.default_rng(3)
    bits = np.unpackbits(np.arange(32, dtype=np.uint8)[:, None], axis=1)[:, 3:]
    weights = 10 ** rng.integers(0, 8, 32) + rng.integers(0, 10, 32)
    counts = merged([(bits, weights)])
    result = RunResult("stab", 7, 5, "philox4x64-10", counts)
    out = tmp_path / "run.json"
    write_report(result, "json", str(out))
    payload = {"backend": "stab", "shots": 7, "seed": 5, "rng_id": "philox4x64-10",
               "counts": dict(counts)}
    assert out.read_text() == _render_json(payload)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        write_report(result, "json", None)
    assert stdout.getvalue() == out.read_text()
