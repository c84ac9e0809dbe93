"""Tableau backend: conjugation against the dense backend, measurement
dichotomy, dense reconstruction, and batched sampling."""

import math
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_statevector import draw

from qsim import stabilizer
from qsim.circuit import (
    Circuit,
    GateApp,
    GateKind,
    Measure,
    OracleApp,
    BooleanFunction,
    PauliAxis,
    ghz,
    gk_entangler,
)
from qsim.errors import DegenerateNorm, NonClifford, TooManyQubits
from qsim.result import key_words
from qsim.rng import shot_uniforms, stream
from qsim.stabilizer import (
    Tableau,
    TableauMeasurement,
    _anticommuting,
    _apply_gates,
    _Gates,
    _determined,
    _measure_axis,
    _product,
    _step,
    _values,
    _write_keys,
    apply_clifford,
    init_tableau,
    measure_pauli,
    run,
    to_statevector,
)
from qsim.statevector import (
    MeasurementSpec,
    equal_up_to_global_phase,
    evolve,
)
from qsim.statevector import run as run_dense

SQ2 = 1.0 / math.sqrt(2.0)

CLIFFORD_POOL = [
    GateApp(GateKind.H, (0,)),
    GateApp(GateKind.H, (1,)),
    GateApp(GateKind.H, (2,)),
    GateApp(GateKind.R, (0,)),
    GateApp(GateKind.R, (1,)),
    GateApp(GateKind.R, (2,)),
    GateApp(GateKind.X, (0,)),
    GateApp(GateKind.Y, (1,)),
    GateApp(GateKind.Z, (2,)),
    GateApp(GateKind.CNOT, (0, 1)),
    GateApp(GateKind.CNOT, (1, 0)),
    GateApp(GateKind.CNOT, (1, 2)),
    GateApp(GateKind.CNOT, (2, 0)),
]


def random_prefix(rng, max_len=14):
    k = int(rng.integers(0, max_len))
    return [CLIFFORD_POOL[i] for i in rng.integers(0, len(CLIFFORD_POOL), k)]


def tableau_of(ops, n=3):
    t = init_tableau(n)
    for op in ops:
        apply_clifford(t, op)
    return t


# ---------------------------------------------------------------------------
# Structure and gates


def test_initial_tableau_rows():
    t = init_tableau(3)
    for q in range(3):
        assert (int(t.x[q, 0]) >> q) & 1 == 1 and int(t.z[q, 0]) == 0
        assert (int(t.z[3 + q, 0]) >> q) & 1 == 1 and int(t.x[3 + q, 0]) == 0
    assert not t.r.any()


def test_tableau_views_write_through_to_the_row_block():
    # x, z and r are views of one row block: assigning one writes its
    # values into the block, which the row kernels read; the constructor
    # copies its arrays.
    x, z, r = np.zeros((4, 1), np.uint64), np.zeros((4, 1), np.uint64), np.zeros((4, 1), np.uint64)
    t = Tableau(2, x, z, r)
    x[0, 0] = 1
    assert not t.block.any()
    view = t.x
    t.x = np.arange(4, dtype=np.uint64)[:, None]
    t.r ^= np.uint64(1)
    t.z = 5
    assert t.x is view and np.array_equal(t.block[:, 0], np.arange(4))
    assert (t.block[:, 1] == 5).all() and (t.block[:, 2] == 1).all()
    assert "Tableau(n=2, x=array(" in repr(t)
    with pytest.raises(ValueError):
        t.x = np.zeros((4, 2), dtype=np.uint64)


def test_word_packing_beyond_64_qubits():
    t = init_tableau(70)
    assert t.x.shape == (140, 2)  # 2n rows: destabilizers, then stabilizers
    apply_clifford(t, GateApp(GateKind.H, (69,)))
    apply_clifford(t, GateApp(GateKind.CNOT, (0, 69)))
    # stabilizer rows now involve word 1; a Z measurement stays a coin
    out = measure_pauli(t, 69, PauliAxis.Z, stream(1))
    assert out.p_plus == 0.5


def test_bell_pair_reconstruction():
    t = tableau_of([GateApp(GateKind.H, (0,)), GateApp(GateKind.CNOT, (0, 1))], n=2)
    got = to_statevector(t)
    want = evolve(Circuit(2, 0, (GateApp(GateKind.H, (0,)), GateApp(GateKind.CNOT, (0, 1)))))
    assert equal_up_to_global_phase(got, want, tol=1e-12)


def test_singlet_reconstruction():
    t = tableau_of(gk_entangler().ops, n=2)
    got = to_statevector(t)
    assert np.allclose(np.abs(got.amps), [0, SQ2, SQ2, 0], atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_random_clifford_words_match_dense(seed):
    rng = np.random.default_rng(seed)
    ops = random_prefix(rng)
    t = tableau_of(ops)
    dense = evolve(Circuit(3, 0, tuple(ops)))
    assert equal_up_to_global_phase(to_statevector(t), dense, tol=1e-10)


def test_apply_clifford_rejections():
    t = init_tableau(2)
    with pytest.raises(NonClifford):
        apply_clifford(t, GateApp(GateKind.S, (0,)))
    with pytest.raises(NonClifford):
        apply_clifford(t, OracleApp(BooleanFunction.from_string("01"), (0,), 1))
    with pytest.raises(ValueError):
        apply_clifford(t, Measure(0, PauliAxis.Z, 0))
    with pytest.raises(ValueError):
        apply_clifford(t, GateApp(GateKind.X, (0,), condition=0))


def test_apply_clifford_rejects_a_cnot_on_one_qubit():
    # CNOT(1, 1) would leave a stabilizer row with no X part
    t = init_tableau(2)
    with pytest.raises(ValueError, match="cnot needs two distinct qubits"):
        apply_clifford(t, GateApp(GateKind.CNOT, (1, 1)))
    _assert_same(t, init_tableau(2))


def test_apply_clifford_rejects_a_gate_of_the_wrong_arity():
    t = init_tableau(2)
    with pytest.raises(ValueError, match=r"h takes 1 qubit\(s\), got 2"):
        apply_clifford(t, GateApp(GateKind.H, (0, 1)))
    with pytest.raises(ValueError, match=r"qubit q2 out of range \(circuit has 2\)"):
        apply_clifford(t, GateApp(GateKind.X, (2,)))
    _assert_same(t, init_tableau(2))


# ---------------------------------------------------------------------------
# Measurement


def test_determined_z_on_zero():
    t = init_tableau(1)
    out = measure_pauli(t, 0, PauliAxis.Z, stream(0))
    assert out.outcome == 1 and out.p_plus == 1.0


def test_x_on_plus_is_determined():
    t = tableau_of([GateApp(GateKind.H, (0,))], n=1)
    out = measure_pauli(t, 0, PauliAxis.X, stream(0))
    assert out.outcome == 1 and out.p_plus == 1.0


def test_y_eigenstate_is_determined():
    # R H |0> = (|0> + i|1>)/sqrt(2), the +1 eigenstate of Y
    t = tableau_of([GateApp(GateKind.H, (0,)), GateApp(GateKind.R, (0,))], n=1)
    out = measure_pauli(t, 0, PauliAxis.Y, stream(0))
    assert out.outcome == 1 and out.p_plus == 1.0


def test_random_measurement_is_fair_coin_then_sticky():
    t = init_tableau(1)
    apply_clifford(t, GateApp(GateKind.H, (0,)))
    first = measure_pauli(t, 0, PauliAxis.Z, stream(5))
    assert first.p_plus == 0.5
    again = measure_pauli(t, 0, PauliAxis.Z, stream(6))
    assert again.p_plus in (0.0, 1.0) and again.outcome == first.outcome


def test_forcing_dead_branch_raises():
    t = init_tableau(1)
    with pytest.raises(DegenerateNorm):
        measure_pauli(t, 0, PauliAxis.Z, force_bit=1)


def test_force_bit_must_be_a_bit():
    t = init_tableau(1)
    apply_clifford(t, GateApp(GateKind.H, (0,)))
    with pytest.raises(ValueError):
        measure_pauli(t, 0, PauliAxis.Z, force_bit=2)
    # the tableau is untouched: the random measurement is still random
    assert measure_pauli(t, 0, PauliAxis.Z, force_bit=1) == TableauMeasurement(-1, 0.5)


@pytest.mark.parametrize("seed", range(30))
def test_measurement_trajectories_match_dense(seed):
    rng = np.random.default_rng(1000 + seed)
    ops = random_prefix(rng)
    t = tableau_of(ops)
    state = evolve(Circuit(3, 0, tuple(ops)))
    g = stream(seed)
    axes = [PauliAxis.X, PauliAxis.Y, PauliAxis.Z]
    for q in range(3):
        axis = axes[int(rng.integers(3))]
        outcome, p_plus, state = draw(state, MeasurementSpec(q, axis), g.random())
        forced = (1 - outcome) // 2
        tab_out = measure_pauli(t, q, axis, force_bit=forced)
        assert tab_out.p_plus in (0.0, 0.5, 1.0)
        assert abs(tab_out.p_plus - p_plus) < 1e-9
    assert equal_up_to_global_phase(to_statevector(t), state, tol=1e-10)


def _coin_signed(n):
    """A tableau whose stabilizer for qubit 0 carries coin variable 1,
    as in a run after a random measurement: one state per coin value."""
    t = init_tableau(n, coins=1)
    apply_clifford(t, GateApp(GateKind.H, (0,)))
    _measure_axis(t, 0, PauliAxis.Z, 1)
    return t


def test_measure_pauli_needs_single_batch():
    with pytest.raises(ValueError):
        measure_pauli(_coin_signed(2), 1, PauliAxis.Z, stream(0))


# ---------------------------------------------------------------------------
# Whole-circuit sampling


def _measured(circuit):
    ops = list(circuit.ops) + [
        Measure(q, PauliAxis.Z, q) for q in range(circuit.n_qubits)
    ]
    return Circuit(circuit.n_qubits, circuit.n_qubits, tuple(ops))


def test_run_matches_dense_counts_exactly():
    c = _measured(ghz(4))
    assert run(c, 1500, seed=21).counts == run_dense(c, 1500, seed=21).counts


def test_run_with_feedback_matches_dense():
    ops = (
        GateApp(GateKind.H, (0,)),
        GateApp(GateKind.CNOT, (0, 1)),
        Measure(0, PauliAxis.Z, 0),
        GateApp(GateKind.X, (1,), condition=0),
        Measure(1, PauliAxis.Z, 1),
    )
    c = Circuit(2, 2, ops)
    a = run(c, 3000, seed=9)
    assert a.counts == run_dense(c, 3000, seed=9).counts
    assert all(key[1] == "0" for key in a.counts)


def test_run_rejects_non_clifford():
    c = Circuit(1, 0, (GateApp(GateKind.S, (0,)),))
    with pytest.raises(NonClifford) as err:
        run(c, 10, seed=0)
    assert err.value.op_index == 0


def test_run_keep_final_state():
    res = run(gk_entangler(), 8, seed=2, keep_final_state=True)
    assert isinstance(res.final_state, Tableau)
    got = to_statevector(res.final_state)
    assert equal_up_to_global_phase(got, evolve(gk_entangler()), tol=1e-10)


def test_large_register_ghz_samples_quickly():
    c = _measured(ghz(300))
    res = run(c, 64, seed=13)
    assert set(res.counts) <= {"0" * 300, "1" * 300}
    assert sum(res.counts.values()) == 64


def _split_ghz(n):
    # GHZ-n with an H on qubit 1 conditioned on qubit 0's outcome: the
    # shots split into two groups, each with its own tableau and forms
    ops = list(ghz(n).ops) + [Measure(0, PauliAxis.Z, 0), GateApp(GateKind.H, (1,), condition=0)]
    ops += [Measure(q, PauliAxis.Z, q) for q in range(1, n)]
    return Circuit(n, n, tuple(ops))


def _traced_run(circuit, shots):
    tracemalloc.start()
    try:
        res = run(circuit, shots, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak


@pytest.mark.parametrize("split", [False, True])
def test_run_memory_grows_with_shots_times_measurement_bytes(split):
    # GHZ-200 measured in full: 200 measurements, 200 classical bits.
    # Signs and bits are forms over the coins, so a run holds the coin
    # bytes of every shot, one block of raw words, one key per shot and
    # the tableau, never a sign or bit per shot per row; a split holds
    # the same per group.  The bound is about twice the measured peak
    # (3.0 MB in a fresh process), in units of shots * ceil(m / 8) bytes.
    n, shots = 200, 20_000
    res, peak = _traced_run(_split_ghz(n) if split else _measured(ghz(n)), shots)
    ones = {"0" * n, "1" * n, "10" + "1" * (n - 2)} if split else {"0" * n, "1" * n}
    assert set(res.counts) == ones and sum(res.counts.values()) == shots
    assert peak < 12 * shots * ((n + 7) // 8)


def _shot_bytes(circuit):
    """What one shot of ``circuit`` holds in a tableau block: its coin
    bytes and its key words."""
    n_meas = sum(isinstance(op, Measure) for op in circuit.ops)
    return ((n_meas + 7) >> 3) + 8 * ((circuit.n_cbits + 63) >> 6)


def test_run_memory_is_one_block_of_shots(monkeypatch):
    # GHZ-400 measured in full at 2 * 10^5 shots holds every shot's coins
    # and keys when it runs as one block (24.6 MiB in a fresh process);
    # in blocks of 10^4 shots it holds one block's (2.9 MiB).  The bound
    # is about 1.5 times that peak, and half the one-block peak.
    n, shots = 400, 200_000
    c = _measured(ghz(n))
    whole, whole_peak = _traced_run(c, shots)
    monkeypatch.setattr(stabilizer, "_BATCH_BYTES", 10_000 * _shot_bytes(c))
    blocks, peak = _traced_run(c, shots)
    assert set(blocks.counts) == {"0" * n, "1" * n} and blocks.counts == whole.counts
    assert peak < 4.5 * 2**20 and peak < whole_peak / 2


def test_one_shot_readout_memory_is_bounded():
    # H on n qubits, all measured, one shot: n random coins read by n
    # forms.  Beyond the tableau and the forms (x, z and the signs of 2n
    # rows, the bits of n, F words each), the readout's byte tables are
    # built a bounded chunk at a time, not 4 * n * n bytes at once.  The
    # bound is about 1.5 times the measured peak (7.2 MB in a fresh
    # process; all the tables at once made it 33 MB).
    n = 2000
    c = Circuit(n, n, tuple(GateApp(GateKind.H, (q,)) for q in range(n))
                + tuple(Measure(q, PauliAxis.Z, q) for q in range(n)))
    res, peak = _traced_run(c, 1)
    assert sum(res.counts.values()) == 1
    words = (3 * 2 * n + n) * ((n >> 6) + 1)
    assert peak < 2 * 8 * words + 4_000_000


def _ghz_measured(n, axis):
    """GHZ-n measured in full along ``axis``, the state rotated there first
    (H on every qubit for X, then R for Y): one coin, then a run of n - 1
    determined outcomes."""
    ops = list(ghz(n).ops)
    if axis is not PauliAxis.Z:
        ops += [GateApp(GateKind.H, (q,)) for q in range(n)]
    if axis is PauliAxis.Y:
        ops += [GateApp(GateKind.R, (q,)) for q in range(n)]
    ops += [Measure(q, axis, q) for q in range(n)]
    return Circuit(n, n, tuple(ops))


def test_determined_run_memory_is_bounded():
    # GHZ-2000 along Y at one shot: after the first coin, 1999 determined
    # outcomes whose flagged rows carry an X and a Z bit on every qubit,
    # so the product reads the 1999 x 2000 flags, L (2000 x 2000) and the
    # rows' bits.  It reads them a bounded tile at a time; whole, they
    # peaked at 91 MiB.  The bound is about 1.5 times the peak before the
    # product existed (10.3 MiB in a fresh process, in the H and R layers).
    n = 2000
    res, peak = _traced_run(_ghz_measured(n, PauliAxis.Y), 1)
    assert set(res.counts) <= {"0" * n, "1" * n} and sum(res.counts.values()) == 1
    assert peak < 15 * 2**20


def test_a_run_of_determined_outcomes_is_one_product(monkeypatch):
    # One _determined call, one set of GF(2) products, answers every
    # determined outcome of a GHZ-n measured in full.
    calls = []
    determined = stabilizer._determined

    def counting(t, meas):
        calls.append(len(meas))
        return determined(t, meas)

    monkeypatch.setattr(stabilizer, "_determined", counting)
    n = 100
    for axis in PauliAxis:
        calls.clear()
        res = run(_ghz_measured(n, axis), 1, seed=4)
        assert calls == [n - 1] and set(res.counts) <= {"0" * n, "1" * n}


@pytest.mark.parametrize("table_words, block_words", [(256, 1), (3 * 256 * 3, 7)])
def test_readout_chunks_do_not_change_counts(monkeypatch, table_words, block_words):
    # 70 random coins, then a CNOT chain that leaves qubit q holding the
    # parity of the first q + 1 coins, measured again: 140 forms over 140
    # coins, three words each.  Table chunks of one or three coin bytes,
    # which start inside form words, and shot blocks of 1 or 7 shots must
    # give the run's counts and final state bit for bit.
    n = 70
    ops = [GateApp(GateKind.H, (q,)) for q in range(n)]
    ops += [Measure(q, PauliAxis.Z, q) for q in range(n)]
    ops += [GateApp(GateKind.CNOT, (q, q + 1)) for q in range(n - 1)]
    ops += [Measure(q, PauliAxis.Z, n + q) for q in range(n)]
    c = Circuit(n, 2 * n, tuple(ops))
    want = run(c, 50, seed=5, keep_final_state=True)
    monkeypatch.setattr(stabilizer, "_TABLE_WORDS", table_words)
    monkeypatch.setattr(stabilizer, "_BLOCK_WORDS", block_words)
    got = run(c, 50, seed=5, keep_final_state=True)
    assert got.counts == want.counts
    assert np.array_equal(got.final_state.r, want.final_state.r)
    # the first n measurements read the coins themselves
    first = (shot_uniforms(5, 50, 2 * n)[:, :n] >= 0.5).astype(np.uint8)
    keys = np.hstack([first, np.bitwise_xor.accumulate(first, axis=1)])
    assert dict(want.counts) == Counter("".join(map(str, row)) for row in keys.tolist())


def test_to_statevector_guards():
    with pytest.raises(TooManyQubits):
        to_statevector(init_tableau(21))
    with pytest.raises(ValueError):
        to_statevector(_coin_signed(2))


def test_mixed_branch_groups_preserve_shot_identity():
    # conditioned gate applies to only part of the batch; distribution
    # of the second bit must follow the first exactly
    ops = (
        GateApp(GateKind.H, (0,)),
        Measure(0, PauliAxis.Z, 0),
        GateApp(GateKind.X, (1,), condition=0),
        Measure(1, PauliAxis.Z, 1),
    )
    res = run(Circuit(2, 2, ops), 5000, seed=77)
    for key in res.counts:
        assert key[0] == key[1]


def test_conditioned_paulis_flip_signs_without_splitting(monkeypatch):
    # syndrome-style rounds on GHZ-4: each X measurement is a fair coin,
    # and its bit conditions X, Y and Z corrections
    ops = list(ghz(4).ops)
    for r, (a, b) in enumerate([(0, 1), (2, 3), (1, 2)]):
        ops += [
            Measure(a, PauliAxis.X, r),
            GateApp(GateKind.X, (a,), condition=r),
            GateApp(GateKind.Z, (b,), condition=r),
            GateApp(GateKind.Y, (b,), condition=r),
        ]
    ops += [Measure(q, PauliAxis.Z, 3 + q) for q in range(4)]
    c = Circuit(4, 7, tuple(ops))

    copies = []
    copy = Tableau.copy

    def counting_copy(t):
        copies.append(1)
        return copy(t)

    monkeypatch.setattr(Tableau, "copy", counting_copy)
    res = run(c, 2000, seed=31)
    assert copies == []
    assert res.counts == run_dense(c, 2000, seed=31).counts
    assert len({key[:3] for key in res.counts}) == 8

    # a conditioned H still splits the batch: the shots that apply it
    # take a copy of the tableau
    split = Circuit(2, 1, (GateApp(GateKind.H, (0,)), Measure(0, PauliAxis.Z, 0),
                           GateApp(GateKind.H, (1,), condition=0)))
    run(split, 64, seed=1)
    assert copies == [1]

    # a conditioned identity changes nothing, so it neither splits the
    # shots nor changes the counts
    copies.clear()
    n = 12
    plain = [GateApp(GateKind.H, (q,)) for q in range(n)]
    plain += [Measure(q, PauliAxis.Z, q) for q in range(n)]
    idle = plain + [GateApp(GateKind.I, (0,), condition=k) for k in range(n)]
    res = run(Circuit(n, n, tuple(idle)), 4096, seed=5)
    assert copies == []
    assert res.counts == run(Circuit(n, n, tuple(plain)), 4096, seed=5).counts


@pytest.mark.parametrize("axis", [PauliAxis.Z, PauliAxis.X])
def test_ghz_measure_all_one_coin_then_determined(axis):
    # GHZ-130 spans three words.  After the first coin every outcome is
    # the sign of a product of up to 129 flagged stabilizer rows, which
    # is -1 in the shots whose first coin came up 1: its form is the
    # first coin's variable.  The X variant rotates the state so that X
    # outcomes are equal and measures X directly.
    n, batch = 130, 8
    t = init_tableau(n, coins=n)
    for op in ghz(n).ops:
        apply_clifford(t, op)
    if axis is PauliAxis.X:
        for q in range(n):
            apply_clifford(t, GateApp(GateKind.H, (q,)))
    u = np.linspace(0.05, 0.95, batch)
    other = np.random.default_rng(0).integers(0, 2, (batch, n - 1), dtype=np.uint8)
    coins = np.packbits(np.column_stack([u >= 0.5, other]), axis=1, bitorder="little")
    first, random = _measure_axis(t, 0, axis, 1)
    assert random and first.tolist() == [2, 0, 0]  # variable 1 alone
    assert np.array_equal(_values(first[None], coins)[:, 0], (u >= 0.5).astype(np.uint8))
    for q in range(1, n):
        bits, random = _measure_axis(t, q, axis, q + 1)
        assert not random and np.array_equal(bits, first)


def test_values_read_every_coin_across_words():
    """Form bit k + 1 is coin k's variable, so coins 63 and 127 sit at bit 0
    of the next form word; a form is its constant XOR the parity of the
    coins it reads, bit by bit."""
    rng = np.random.default_rng(5)
    forms = np.frombuffer(rng.bytes(6 * 3 * 8), dtype=np.uint64).reshape(6, 3).copy()
    forms[:, 2] &= np.uint64(7)  # 130 coins: form bits 0..130
    forms[1] = [0, 1, 0]  # coin 63 alone
    forms[2] = [1, 0, 1]  # the constant and coin 127
    coins = np.frombuffer(rng.bytes(20 * 17), dtype=np.uint8).reshape(20, 17)
    bit = lambda words, k: (int(words[k >> 6]) >> (k & 63)) & 1
    want = [[bit(f, 0) ^ sum(bit(f, k + 1) & (int(c[k >> 3]) >> (k & 7)) for k in range(130)) & 1
             for f in forms] for c in coins]
    assert np.array_equal(_values(forms, coins), want)


# ---------------------------------------------------------------------------
# Differential test: the vectorized sign paths against a sequential
# Aaronson-Gottesman reference that XORs whole sign matrices, computes
# rowsum signs in int64, and accumulates a determined outcome one
# stabilizer row at a time into a scratch row 2n.


def ref_init(n, batch):
    t = init_tableau(n)
    pad = lambda a: np.vstack([a, np.zeros((1, a.shape[1]), dtype=a.dtype)])
    return Tableau(n, pad(t.x), pad(t.z), np.zeros((2 * n + 1, batch), dtype=np.uint8))


def ref_select(t, mask):
    """A copy holding only the sign columns of the shots in ``mask``."""
    return Tableau(t.n, t.x.copy(), t.z.copy(), t.r[:, mask].copy())


def _col(arr, q):
    return ((arr[:, q >> 6] >> np.uint64(q & 63)) & np.uint64(1)).astype(np.uint8)


def ref_pauli_flips(t, kind, q):
    if kind is GateKind.X:
        return _col(t.z, q)
    if kind is GateKind.Z:
        return _col(t.x, q)
    return _col(t.x, q) ^ _col(t.z, q)


def ref_gate(t, kind, targets):
    q = targets[0]
    bit = np.uint64(1) << np.uint64(q & 63)
    if kind in (GateKind.H, GateKind.R):
        t.r ^= (_col(t.x, q) & _col(t.z, q))[:, None]
        if kind is GateKind.H:
            diff = (t.x[:, q >> 6] ^ t.z[:, q >> 6]) & bit
            t.x[:, q >> 6] ^= diff
            t.z[:, q >> 6] ^= diff
        else:
            t.z[:, q >> 6] ^= t.x[:, q >> 6] & bit
    elif kind is GateKind.CNOT:
        c, tg = targets
        xc, zc, xt, zt = _col(t.x, c), _col(t.z, c), _col(t.x, tg), _col(t.z, tg)
        t.r ^= (xc & zt & (xt ^ zc ^ 1))[:, None]
        t.x[:, tg >> 6] ^= xc.astype(np.uint64) << np.uint64(tg & 63)
        t.z[:, c >> 6] ^= zt.astype(np.uint64) << np.uint64(c & 63)
    else:
        t.r ^= ref_pauli_flips(t, kind, q)[:, None]


def _g_sum(x1, z1, x2, z2) -> np.ndarray:
    """The exponent of i from multiplying Pauli strings (x1, z1) (left)
    onto (x2, z2) (right), summed over qubits from the +1 and -1
    selector masks of the Aaronson-Gottesman g function."""
    plus = (x1 & z1 & z2 & ~x2) | (x1 & ~z1 & z2 & x2) | (~x1 & z1 & x2 & ~z2)
    minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & z2 & ~x2) | (~x1 & z1 & x2 & z2)
    return (
        np.bitwise_count(plus).astype(np.int64).sum(axis=-1)
        - np.bitwise_count(minus).astype(np.int64).sum(axis=-1)
    )


def ref_rowsum(t, h, i):
    """row_h <- row_i * row_h, ``h`` one row or an array of rows."""
    g = _g_sum(t.x[i], t.z[i], t.x[h], t.z[h])
    total = 2 * t.r[h].astype(np.int64) + 2 * t.r[i].astype(np.int64) + np.asarray(g)[..., None]
    t.r[h] = ((total % 4) == 2).astype(np.uint8)
    t.x[h] ^= t.x[i]
    t.z[h] ^= t.z[i]


def ref_measure_z(t, q, u):
    n = t.n
    xcol = _col(t.x[: 2 * n], q).astype(bool)
    anti = np.flatnonzero(xcol[n:])
    if anti.size:
        p = n + int(anti[0])
        rows = np.flatnonzero(xcol)
        rows = rows[rows != p]
        if rows.size:
            ref_rowsum(t, rows, p)
        t.x[p - n], t.z[p - n], t.r[p - n] = t.x[p], t.z[p], t.r[p]
        t.x[p] = 0
        t.z[p] = 0
        t.z[p, q >> 6] = np.uint64(1) << np.uint64(q & 63)
        t.r[p] = (u >= 0.5).astype(np.uint8)
        return t.r[p].copy()
    s = 2 * n
    t.x[s], t.z[s], t.r[s] = 0, 0, 0
    for i in np.flatnonzero(xcol[:n]):
        ref_rowsum(t, s, n + int(i))
    return t.r[s].copy()


def ref_measure(t, q, axis, u):
    if axis is PauliAxis.Z:
        return ref_measure_z(t, q, u)
    if axis is PauliAxis.X:
        ref_gate(t, GateKind.H, (q,))
        bits = ref_measure_z(t, q, u)
        ref_gate(t, GateKind.H, (q,))
        return bits
    for kind in (GateKind.R, GateKind.R, GateKind.R, GateKind.H):
        ref_gate(t, kind, (q,))
    bits = ref_measure_z(t, q, u)
    ref_gate(t, GateKind.H, (q,))
    ref_gate(t, GateKind.R, (q,))
    return bits


def ref_step(groups, op, u):
    if isinstance(op, Measure):
        for t, cb, idx in groups:
            cb[:, op.dest] = ref_measure(t, op.qubit, op.axis, u[idx])
        return groups
    if op.condition is None:
        for t, _, _ in groups:
            ref_gate(t, op.kind, op.targets)
        return groups
    split = []
    for t, cb, idx in groups:
        mask = cb[:, op.condition] == 1
        if op.kind in (GateKind.X, GateKind.Y, GateKind.Z):
            t.r[:, mask] ^= ref_pauli_flips(t, op.kind, op.targets[0])[:, None]
            split.append((t, cb, idx))
        elif mask.all():
            ref_gate(t, op.kind, op.targets)
            split.append((t, cb, idx))
        elif not mask.any():
            split.append((t, cb, idx))
        else:
            hot = ref_select(t, mask)
            ref_gate(hot, op.kind, op.targets)
            split.append((hot, cb[mask], idx[mask]))
            split.append((ref_select(t, ~mask), cb[~mask], idx[~mask]))
    return split


_CLIFFORD_KINDS = [GateKind.H, GateKind.R, GateKind.X, GateKind.Y, GateKind.Z, GateKind.CNOT]


@st.composite
def clifford_feedback_circuits(draw):
    """Clifford circuits on 1-130 qubits (one to three tableau words).

    Gates act on a few active qubits spread over the register, so that
    entanglement builds up and determined measurements flag many rows;
    X/Y/Z measurements write bits that later gates are conditioned on.
    """
    n = draw(st.integers(1, 130))
    active = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 6), unique=True))
    n_cbits = draw(st.integers(1, 4))
    written: list[int] = []
    ops = []
    for _ in range(draw(st.integers(1, 80))):
        if draw(st.integers(0, 3)) == 0:
            dest = draw(st.integers(0, n_cbits - 1))
            ops.append(Measure(draw(st.sampled_from(active)), draw(st.sampled_from(PauliAxis)), dest))
            written.append(dest)
            continue
        kind = draw(st.sampled_from(_CLIFFORD_KINDS))
        if kind is GateKind.CNOT:
            if len(active) < 2:
                continue
            targets = tuple(draw(st.permutations(active))[:2])
        else:
            targets = (draw(st.sampled_from(active)),)
        cond = draw(st.sampled_from(written)) if written and draw(st.booleans()) else None
        ops.append(GateApp(kind, targets, condition=cond))
    return Circuit(n, n_cbits, tuple(ops))


def _phase_circuit():
    """A determined X outcome whose flagged rows multiply to a phase
    sum of 2 mod 4, on qubits in three different words.  Random circuits
    rarely reach that case."""
    a, b, c = 5, 64, 129
    h = lambda q: GateApp(GateKind.H, (q,))
    cx = lambda p, q: GateApp(GateKind.CNOT, (p, q))
    ops = (h(a), h(b), Measure(c, PauliAxis.X, 0), cx(c, a), Measure(b, PauliAxis.X, 1),
           h(a), cx(b, c), cx(c, a), Measure(b, PauliAxis.X, 2))
    return Circuit(130, 3, ops)


def _constant_flip_circuit():
    """A random X measurement whose row products flip the constant of a
    stabilizer row (g = 2 mod 4), then measurements that read that row."""
    h = lambda q: GateApp(GateKind.H, (q,))
    r = lambda q: GateApp(GateKind.R, (q,))
    cx = lambda p, q: GateApp(GateKind.CNOT, (p, q))
    ops = (cx(1, 2), r(2), h(1), cx(1, 2), cx(1, 0), cx(1, 0), r(2), h(2),
           Measure(2, PauliAxis.X, 0), Measure(2, PauliAxis.X, 1),
           Measure(1, PauliAxis.Z, 2), Measure(0, PauliAxis.Y, 3), Measure(1, PauliAxis.X, 3))
    return Circuit(3, 4, ops)


def _y_phase_ops():
    """Gates after which Y on qubit 64 is determined and its flagged rows
    multiply with a phase sum of 2 mod 4: the product's own Y term then
    decides the outcome."""
    h = lambda q: GateApp(GateKind.H, (q,))
    r = lambda q: GateApp(GateKind.R, (q,))
    cx = lambda p, q: GateApp(GateKind.CNOT, (p, q))
    return [h(64), r(64), cx(129, 5), cx(5, 64), h(129), r(129), cx(129, 5), h(129),
            Measure(64, PauliAxis.Y, 0)]


def _after_64_determined(c):
    """``c`` after 64 determined Z measurements of qubit 0, so that its
    own coins are variables in the second word of every form."""
    return Circuit(c.n_qubits, c.n_cbits, (Measure(0, PauliAxis.Z, 0),) * 64 + c.ops)


def _rewritten_bit():
    """GHZ-130 measured along Z, an X on qubit 7, then one run of 40
    determined outcomes: qubit 7 twice into bit 0, 37 qubits into their
    own bits again, and last qubit 3 into bit 0, which must win."""
    c = _ghz_measured(130, PauliAxis.Z)
    ops = [GateApp(GateKind.X, (7,))] + [Measure(7, PauliAxis.Z, 0)] * 2
    ops += [Measure(q, PauliAxis.Z, q) for q in range(10, 47)] + [Measure(3, PauliAxis.Z, 0)]
    return Circuit(130, 130, c.ops + tuple(ops))


@settings(max_examples=60, deadline=None)
@example(circuit=_phase_circuit(), shots=16, seed=3)
@example(circuit=_after_64_determined(_phase_circuit()), shots=16, seed=3)
@example(circuit=_after_64_determined(_constant_flip_circuit()), shots=16, seed=3)
@example(circuit=_ghz_measured(130, PauliAxis.Z), shots=8, seed=5)
@example(circuit=_ghz_measured(130, PauliAxis.X), shots=8, seed=5)
@example(circuit=_ghz_measured(130, PauliAxis.Y), shots=8, seed=5)
@example(circuit=_after_64_determined(_ghz_measured(130, PauliAxis.Y)), shots=8, seed=5)
@example(circuit=_rewritten_bit(), shots=8, seed=5)
@example(circuit=Circuit(130, 1, tuple(_y_phase_ops()) + (Measure(64, PauliAxis.Y, 0),) * 7),
         shots=4, seed=5)
@given(
    circuit=clifford_feedback_circuits(),
    shots=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_sign_paths_match_sequential_rowsum(circuit, shots, seed):
    # _step and _measure_axis keep signs and bits as forms over the coins;
    # the reference keeps one sign column per shot and bits as (shots, m),
    # and thresholds the uniforms itself.  Every form evaluated at each
    # shot's coins must give that shot's reference bit.  Here each op is
    # applied alone; run, checked last, answers each run of determined
    # measurements at once, the GHZ examples with one product.
    n, m = circuit.n_qubits, circuit.n_cbits
    n_meas = sum(isinstance(op, Measure) for op in circuit.ops)
    uniforms = shot_uniforms(seed, shots, n_meas)
    coins = shot_uniforms(seed, shots, n_meas, coins=True)
    forms = (n_meas >> 6) + 1
    groups = [(init_tableau(n, n_meas), np.zeros((m, forms), dtype=np.uint64), np.arange(shots))]
    ref = [(ref_init(n, shots), np.zeros((shots, m), dtype=np.uint8), np.arange(shots))]
    mi = 0
    for op in circuit.ops:
        u = None
        if isinstance(op, Measure):
            u = uniforms[:, mi]
            mi += 1
            for t, cb, _ in groups:
                cb[op.dest], _ = _measure_axis(t, op.qubit, op.axis, mi)
        else:
            gate = _rows((op,))
            if op.condition is None:
                for t, _, _ in groups:
                    _apply_gates(t, gate)
            else:
                groups = _step(groups, gate, op.condition, coins)
        ref = ref_step(ref, op, u)
        assert len(groups) == len(ref)
        for (t, cb, idx), (rt, rcb, ridx) in zip(groups, ref):
            assert np.array_equal(idx, ridx)
            assert np.array_equal(t.x, rt.x[: 2 * n])
            assert np.array_equal(t.z, rt.z[: 2 * n])
            assert np.array_equal(_values(t.r, coins[idx]).T, rt.r[: 2 * n])
            assert np.array_equal(_values(cb, coins[idx]), rcb)
    want = Counter("".join(map(str, row)) for _, cb, _ in ref for row in cb.tolist())
    res = run(circuit, shots, seed, keep_final_state=True)
    assert res.counts == dict(sorted(want.items()))
    # keep_final_state: the reference tableau of shot shots - 1
    rt, _, _ = next(g for g in ref if g[2][-1] == shots - 1)
    final = res.final_state
    assert np.array_equal(final.x, rt.x[: 2 * n]) and np.array_equal(final.z, rt.z[: 2 * n])
    assert final.r.shape == (2 * n, 1) and np.array_equal(final.r[:, 0], rt.r[: 2 * n, -1])


def _conditioned(kind, *qubits, last):
    """q0 measured into c0 after an H, an H on q1, then ``kind`` on
    ``qubits`` conditioned on c0 and ``last`` measured: the shots split
    into two groups of their own tableaus and forms."""
    ops = (GateApp(GateKind.H, (0,)), Measure(0, PauliAxis.Z, 0), GateApp(GateKind.H, (1,)),
           GateApp(kind, qubits, condition=0)) + last
    return Circuit(3, 3, ops)


@settings(max_examples=60, deadline=None)
@example(circuit=_split_ghz(20), shots=50, block=7, seed=3)
@example(circuit=_conditioned(GateKind.R, 1, last=(Measure(1, PauliAxis.Y, 1),)),
         shots=40, block=3, seed=2)
@example(circuit=_conditioned(GateKind.CNOT, 1, 2, last=(Measure(2, PauliAxis.Z, 1),
                                                         Measure(1, PauliAxis.X, 2))),
         shots=40, block=6, seed=2)
@given(
    circuit=clifford_feedback_circuits(),
    shots=st.integers(1, 64),
    block=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_do_not_change_a_run(circuit, shots, block, seed):
    # A run in blocks of ``block`` shots draws each block's coins, makes
    # its own pass and writes its keys; the merged counts, as arrays, and
    # the final tableau, read in the last block, are the one-block run's.
    want = run(circuit, shots, seed, keep_final_state=True)
    with mock.patch.object(stabilizer, "_BATCH_BYTES", block * _shot_bytes(circuit)):
        got = run(circuit, shots, seed, keep_final_state=True)
    assert got.counts.words.tobytes() == want.counts.words.tobytes()
    assert got.counts.tallies.tobytes() == want.counts.tallies.tobytes()
    for a, b in zip((got.final_state.x, got.final_state.z, got.final_state.r),
                    (want.final_state.x, want.final_state.z, want.final_state.r)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The column kernel against sequential gates, and direct X/Y measurement
# against conjugation to Z.


@st.composite
def gate_lists(draw):
    """A scrambling prefix and a gate list on 1-200 qubits (one to four
    words), both drawn from a pool of qubits spread over the register."""
    n = draw(st.integers(1, 200))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 40), unique=True))

    def gates(k):
        out = []
        for _ in range(k):
            kind = draw(st.sampled_from(_CLIFFORD_KINDS + [GateKind.I]))
            if kind is GateKind.CNOT:
                if len(pool) < 2:
                    continue
                out.append(GateApp(kind, tuple(draw(st.permutations(pool))[:2])))
            else:
                out.append(GateApp(kind, (draw(st.sampled_from(pool)),)))
        return out

    return n, gates(draw(st.integers(0, 30))), gates(draw(st.integers(1, 120)))


def _mixed_segment():
    """H, R, X, Y, Z and CNOTs on 200 qubits.  Controls and targets sit
    in different words; two targets share a byte and two controls share
    one, and the prefix puts X, Z and Y bits under every gate."""
    g = lambda kind, *q: GateApp(kind, q)
    one = [3, 70, 130, 5, 199, 10, 150, 66, 0, 128, 1]
    prefix = [g(GateKind.H, q) for q in one + [140, 20, 64, 65, 71, 190]]
    prefix += [g(GateKind.R, q) for q in one[::2] + [20, 65]]
    prefix += [g(GateKind.CNOT, a, b) for a, b in zip(one, one[1:] + [140, 20, 64])]
    segment = [g(GateKind.H, 3), g(GateKind.R, 70), g(GateKind.X, 130), g(GateKind.Y, 5),
               g(GateKind.Z, 199), g(GateKind.CNOT, 10, 140), g(GateKind.CNOT, 150, 20),
               g(GateKind.CNOT, 66, 64), g(GateKind.CNOT, 0, 65), g(GateKind.CNOT, 128, 71),
               g(GateKind.CNOT, 1, 190)]
    return 200, prefix, segment


def _word_edges(n):
    """Gates on the last qubits of every word and the first of the next,
    on ``n`` qubits, so that columns cross word and byte boundaries."""
    g = lambda kind, *q: GateApp(kind, q)
    edge = sorted({q for w in range(0, n, 64) for q in (w, w + 1, w + 62, w + 63) if q < n})
    prefix = [g(GateKind.H, q) for q in edge] + [g(GateKind.R, q) for q in edge[::2]]
    prefix += [g(GateKind.CNOT, a, b) for a, b in zip(edge, edge[1:])]
    ops = [g(kind, q) for q in edge for kind in (GateKind.H, GateKind.R, GateKind.Y)]
    ops += [g(GateKind.CNOT, b, a) for a, b in zip(edge, edge[1:])]
    return n, prefix, ops


def _copy_of(t):
    return Tableau(t.n, t.x.copy(), t.z.copy(), t.r.copy())


def _rows(ops):
    """GateApp ops as the kind, qubit and last-target columns
    ``_apply_gates`` reads."""
    ops = list(ops)
    return _Gates([op.kind for op in ops], [op.targets[0] for op in ops],
                  [op.targets[-1] for op in ops])


def _assert_same(a, b):
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.r, b.r)


def _assert_same_at(t, ref, coins):
    """``t``'s sign forms, evaluated at each shot's coin bytes, are the
    per-shot signs of the reference tableau ``ref``."""
    assert np.array_equal(t.x, ref.x)
    assert np.array_equal(t.z, ref.z)
    assert np.array_equal(_values(t.r, coins).T, ref.r)


def _ref_gates(t, ops):
    for op in ops:
        if op.kind is not GateKind.I:
            ref_gate(t, op.kind, op.targets)


@settings(max_examples=80, deadline=None)
@example(case=_mixed_segment(), batch=5, seed=1)
@example(case=_word_edges(63), batch=3, seed=2)
@example(case=_word_edges(64), batch=3, seed=3)
@example(case=_word_edges(65), batch=3, seed=4)
@example(case=_word_edges(129), batch=3, seed=5)
@example(case=(200, _mixed_segment()[1], [GateApp(GateKind.I, (q,)) for q in (0, 64, 199)]),
         batch=4, seed=6)
@example(case=(200, _mixed_segment()[1], [GateApp(GateKind.H, (130,))]), batch=2, seed=7)
@example(case=(200, _mixed_segment()[1], [GateApp(GateKind.CNOT, (199, 0))]), batch=2, seed=8)
@example(case=(1, [GateApp(GateKind.H, (0,))], [GateApp(GateKind.Y, (0,))]), batch=2, seed=9)
@given(case=gate_lists(), batch=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_column_kernel_matches_sequential_gates(case, batch, seed):
    # random sign forms over 70 coins (two words), and the reference's
    # per-shot signs: those forms at ``batch`` random coin patterns
    n, prefix, ops = case
    rng, d = np.random.default_rng(seed), 70
    start = init_tableau(n, d)
    bits = rng.integers(0, 2, (2 * n, 64 * start.r.shape[1]), dtype=np.uint8)
    bits[:, d + 1 :] = 0
    start.r[:] = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    coins = rng.integers(0, 256, (batch, (d + 7) // 8), dtype=np.uint8)
    ref_start = Tableau(n, start.x.copy(), start.z.copy(), _values(start.r, coins).T.copy())
    _apply_gates(start, _rows(prefix))
    _ref_gates(ref_start, prefix)
    _assert_same_at(start, ref_start, coins)
    # the whole list in one call, and each gate alone, are the gates'
    # product in program order
    t, one, ref = _copy_of(start), _copy_of(start), _copy_of(ref_start)
    _apply_gates(t, _rows(ops))
    for op in ops:
        _apply_gates(one, _rows((op,)))
        _ref_gates(ref, (op,))
        _assert_same_at(one, ref, coins)
    _assert_same_at(t, ref, coins)
    # blocks of one word each move the same columns
    small = _copy_of(start)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stabilizer, "_BLOCK_BYTES", 1)
        _apply_gates(small, _rows(ops))
    _assert_same(small, t)


def _conjugated_measure(t, q, axis, rng, force):
    """Measure X or Y by conjugating it to Z: H for X, U = H R-adjoint
    (three R's, then H) for Y, and back.  None where forcing raises."""
    there, back = {
        PauliAxis.Z: ([], []),
        PauliAxis.X: ([GateKind.H], [GateKind.H]),
        PauliAxis.Y: ([GateKind.R] * 3 + [GateKind.H], [GateKind.H, GateKind.R]),
    }[axis]
    for kind in there:
        apply_clifford(t, GateApp(kind, (q,)))
    try:
        out = measure_pauli(t, q, PauliAxis.Z, rng, force)
    except DegenerateNorm:
        out = None
    for kind in back:
        apply_clifford(t, GateApp(kind, (q,)))
    return out


@st.composite
def measured_cliffords(draw):
    """Gates and X/Y/Z measurements on a few qubits of 1-130, each
    measurement drawing its outcome or forcing 0 or 1."""
    n = draw(st.integers(1, 130))
    active = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 6), unique=True))
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        if draw(st.integers(0, 2)) == 0:
            axis = draw(st.sampled_from(PauliAxis))
            ops.append((Measure(draw(st.sampled_from(active)), axis, 0),
                        draw(st.sampled_from([None, 0, 1]))))
            continue
        kind = draw(st.sampled_from(_CLIFFORD_KINDS))
        if kind is GateKind.CNOT:
            if len(active) < 2:
                continue
            ops.append((GateApp(kind, tuple(draw(st.permutations(active))[:2])), None))
        else:
            ops.append((GateApp(kind, (draw(st.sampled_from(active)),)), None))
    return n, ops


@settings(max_examples=80, deadline=None)
@example(case=(130, [(op, None) for op in _phase_circuit().ops]), seed=0)
@example(case=(130, [(op, None) for op in _y_phase_ops()]), seed=0)
@given(case=measured_cliffords(), seed=st.integers(0, 2**32 - 1))
def test_direct_xy_measurement_matches_conjugation(case, seed):
    n, ops = case
    t, ref = init_tableau(n), init_tableau(n)
    rng, ref_rng = stream(seed), stream(seed)
    for op, force in ops:
        if isinstance(op, GateApp):
            apply_clifford(t, op)
            apply_clifford(ref, op)
            continue
        before = _copy_of(t)
        try:
            got = measure_pauli(t, op.qubit, op.axis, None if force is not None else rng, force)
        except DegenerateNorm:
            got = None
            _assert_same(t, before)  # a refused force leaves the tableau alone
        want = _conjugated_measure(ref, op.qubit, op.axis,
                                   None if force is not None else ref_rng, force)
        assert got == want
        _assert_same(t, ref)


def _odd_phase_rows(n, ops, seed):
    """Run ``ops`` and return every row ``_rowsum_many`` gets with an odd
    phase sum g, checking at each call that it is destabilizer p - n."""
    t, rng = init_tableau(n), stream(seed)
    odd_rows = []
    real = stabilizer._rowsum_many

    def spy(tab, rows, p):
        g = _g_sum(tab.x[p], tab.z[p], tab.x[rows], tab.z[rows])
        odd = rows[(g & 1) == 1].tolist()
        assert set(odd) <= {p - tab.n}
        odd_rows.extend(odd)
        real(tab, rows, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stabilizer, "_rowsum_many", spy)
        for op, force in ops:
            if isinstance(op, GateApp):
                apply_clifford(t, op)
                continue
            try:
                measure_pauli(t, op.qubit, op.axis, None if force is not None else rng, force)
            except DegenerateNorm:
                pass
    return odd_rows


@settings(max_examples=80, deadline=None)
@given(case=measured_cliffords(), seed=st.integers(0, 2**32 - 1))
def test_rowsum_many_gets_an_odd_phase_only_on_the_overwritten_row(case, seed):
    # _rowsum_many sets no sign where g is odd: of the rows _collapse
    # passes it, only destabilizer p - n can anticommute with row p, and
    # _collapse overwrites that row right after
    _odd_phase_rows(*case, seed)


def test_rowsum_many_is_passed_the_overwritten_row():
    # after H, Y anticommutes with both the stabilizer X and the
    # destabilizer Z, so the destabilizer is passed with an odd phase
    ops = [(GateApp(GateKind.H, (0,)), None), (Measure(0, PauliAxis.Y, 0), None)]
    assert _odd_phase_rows(1, ops, seed=0) == [0]


@pytest.mark.parametrize("ops", [_phase_circuit().ops, _y_phase_ops()], ids=["x", "y"])
def test_phase_examples_reach_phase_two(ops):
    # each example above ends in a determined outcome whose flagged
    # stabilizer rows multiply with a phase sum of 2 mod 4
    t = init_tableau(130)
    rng = stream(0)
    for op in ops[:-1]:
        if isinstance(op, Measure):
            measure_pauli(t, op.qubit, op.axis, rng)
        else:
            apply_clifford(t, op)
    last = ops[-1]
    w, b = last.qubit >> 6, np.uint64(last.qubit & 63)
    col = {PauliAxis.X: t.z[:, w], PauliAxis.Y: t.x[:, w] ^ t.z[:, w]}[last.axis]
    flags = ((col >> b) & np.uint64(1)).astype(bool)
    assert not flags[t.n :].any()  # determined
    rows = t.n + np.flatnonzero(flags[: t.n])
    xs, zs = t.x[rows], t.z[rows]
    px = np.bitwise_xor.accumulate(xs, axis=0) ^ xs
    pz = np.bitwise_xor.accumulate(zs, axis=0) ^ zs
    assert int(_g_sum(xs, zs, px, pz).sum()) % 4 == 2
    assert measure_pauli(t, last.qubit, last.axis, rng).p_plus in (0.0, 1.0)


# ---------------------------------------------------------------------------
# GF(2) products: the kernel against integer matrix products, and a run of
# determined measurements against row products taken one at a time.


@settings(max_examples=100, deadline=None)
@given(count=st.integers(1, 40), size=st.integers(1, 70), extra=st.integers(0, 1),
       words=st.integers(1, 3), density=st.sampled_from([0.03, 0.5]),
       empty=st.lists(st.integers(0, 8), max_size=3), subset=st.booleans(),
       table=st.sampled_from([256, 1 << 17]), block=st.sampled_from([1, 3, 1 << 15]),
       workers=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_product_is_the_matrix_product_mod_2(count, size, extra, words, density, empty, subset,
                                              table, block, workers, seed):
    # out[rows] ^= a[rows] b over GF(2), against (A @ B) & 1 in int64: b's
    # rows need not fill their last byte group, a may carry bytes past
    # b's end, some groups of 8 rows of b are all zero, and the rows are a
    # slice or a subset, read in tables of one group and blocks of a few
    # rows by 1-3 shot ranges.
    rng = np.random.default_rng(seed)
    a_bits = rng.random((count, 8 * ((size + 7) // 8 + extra))) < density
    b_bits = rng.random((size, 64 * words)) < density
    for g in empty:
        b_bits[8 * g : 8 * g + 8] = False
    a = np.packbits(a_bits, axis=1, bitorder="little")
    b = np.packbits(b_bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)
    out = rng.integers(0, 2**63, (count, words), dtype=np.uint64)
    rows = np.flatnonzero(rng.random(count) < 0.6) if subset else slice(count // 3, count)
    want = out.copy()
    prod = (a_bits[:, :size].astype(np.int64) @ b_bits.astype(np.int64)) & 1
    want[rows] ^= np.packbits(prod.astype(bool), axis=1, bitorder="little").view("<u8")[rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stabilizer, "_TABLE_WORDS", table)
        mp.setattr(stabilizer, "_BLOCK_WORDS", block)
        mp.setattr(stabilizer, "_workers", lambda shots, words: workers)
        _product(a, b, out, rows)
    assert np.array_equal(out, want)


def ref_determined(t, meas):
    """The outcome forms of determined measurements, one at a time: the
    stabilizer rows whose destabilizers anticommute with the measured
    Pauli, read bit by bit, multiplied into a scratch row in ascending
    order as :func:`ref_rowsum` does, the forms XORed and the constant
    flipped at each product whose exponent of i is 2 mod 4."""
    n = t.n
    bit = lambda a, i, q: (int(a[i, q >> 6]) >> (q & 63)) & 1
    out = np.zeros((len(meas), t.r.shape[1]), dtype=np.uint64)
    for j, (q, axis) in enumerate(meas):
        x, z = np.zeros(t.words, dtype=np.uint64), np.zeros(t.words, dtype=np.uint64)
        for i in range(n):
            if (axis is not PauliAxis.X and bit(t.x, i, q)) ^ (axis is not PauliAxis.Z
                                                             and bit(t.z, i, q)):
                g = int(_g_sum(t.x[n + i], t.z[n + i], x, z))
                assert g % 2 == 0  # the flagged rows commute
                out[j] ^= t.r[n + i]
                out[j, 0] ^= np.uint64(g % 4 == 2)
                x ^= t.x[n + i]
                z ^= t.z[n + i]
    return out


@st.composite
def determined_runs(draw):
    """A tableau on 1-130 qubits with coin forms, and a run of 1-40
    determined measurements on it, repeats allowed.

    A GHZ state on 1-40 qubits spread over the register is turned by
    local H and R gates, so that its equal outcomes lie along X, Y or Z
    qubit by qubit.  Clifford gates and X/Y/Z measurements among those
    qubits follow, each measurement drawing a coin (its own variable),
    and a last measurement collapses what is left.  Last, random pairs of
    generators are multiplied, stabilizer i by stabilizer j and
    destabilizer j by destabilizer i, which keeps the state and the
    tableau's pairing but leaves generators with X and Z bits all over.
    The run is drawn from every (qubit, axis) that no stabilizer then
    anticommutes with: the product of up to 130 flagged rows, their forms
    carrying the coins."""
    n = draw(st.integers(1, 130))
    active = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 40), unique=True))
    gates = [GateApp(GateKind.H, (active[0],))]
    gates += [GateApp(GateKind.CNOT, pair) for pair in zip(active, active[1:])]
    for q in active:
        gates += [GateApp(kind, (q,)) for kind in
                  draw(st.lists(st.sampled_from([GateKind.H, GateKind.R]), max_size=3))]
    steps = draw(st.lists(st.tuples(st.sampled_from(_CLIFFORD_KINDS + [None]),
                                    st.sampled_from(active), st.sampled_from(active),
                                    st.sampled_from(PauliAxis)), max_size=12))
    t = init_tableau(n, len(steps) + 1)
    _apply_gates(t, _rows(gates))
    for k, (kind, a, b, axis) in enumerate(steps, start=1):
        if kind is None:
            _measure_axis(t, a, axis, k)
        elif kind is not GateKind.CNOT:
            _apply_gates(t, _Gates((kind,), (a,), (a,)))
        elif a != b:
            _apply_gates(t, _Gates((kind,), (a,), (b,)))
    _measure_axis(t, active[-1], draw(st.sampled_from(PauliAxis)), len(steps) + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for i, j in rng.integers(0, n, (draw(st.integers(0, 3 * n)), 2)).tolist():
        if i != j:
            stabilizer._rowsum_many(t, np.array([n + i]), n + j)
            stabilizer._rowsum_many(t, np.array([j]), i)
    stable = [(q, a) for q in active for a in PauliAxis
              if not _anticommuting(t, [(q, a)], slice(n, None)).any()]
    meas = draw(st.lists(st.sampled_from(stable), min_size=1, max_size=40))
    return t, meas


def _ghz_y_run(n):
    """GHZ-n rotated to Y with its first Y coin drawn, and the Y
    measurements of the other qubits: their flagged rows carry an X and a
    Z bit on every qubit, over three words at n = 130."""
    t = init_tableau(n, 1)
    _apply_gates(t, _rows(op for op in _ghz_measured(n, PauliAxis.Y).ops if isinstance(op, GateApp)))
    _measure_axis(t, 0, PauliAxis.Y, 1)
    return t, [(q, PauliAxis.Y) for q in range(1, n)]


def _y_phase_run():
    """The tableau after :func:`_y_phase_ops`' gates and its Y measurement
    eight times: flagged rows whose phase sum is 2 mod 4."""
    t = init_tableau(130)
    _apply_gates(t, _rows(_y_phase_ops()[:-1]))
    return t, [(64, PauliAxis.Y)] * 8


@settings(max_examples=150, deadline=None)
@example(case=_ghz_y_run(130), picks=[(64, PauliAxis.X)], rows="stabilizers")
@example(case=_ghz_y_run(130), picks=[(129, PauliAxis.Y)], rows="destabilizers")
@example(case=_ghz_y_run(130), picks=[(q, a) for q in (0, 63, 64, 127, 128, 129)
                                      for a in PauliAxis] * 2 + [(5, PauliAxis.Y)] * 4,
         rows="all")
@given(case=determined_runs(),
       picks=st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(PauliAxis)),
                      min_size=1, max_size=40),
       rows=st.sampled_from(["all", "destabilizers", "stabilizers"]))
def test_anticommuting_matches_per_bit_reads(case, picks, rows):
    # The reader's (rows, J) bools against each row's x and z bits at the
    # qubit, read as Python ints: Z reads x, X reads z, Y their XOR.  One
    # Pauli takes the word-column branch, more the byte gather; qubits
    # repeat and lie in every word of a 130-qubit tableau.
    t, _ = case
    n = t.n
    meas = [(q % n, axis) for q, axis in picks]
    span = {"all": slice(None), "destabilizers": slice(n), "stabilizers": slice(n, None)}[rows]
    bit = lambda a, i, q: (int(a[i, q >> 6]) >> (q & 63)) & 1
    want = [[bool((axis is not PauliAxis.X and bit(t.x, i, q))
                  ^ (axis is not PauliAxis.Z and bit(t.z, i, q))) for q, axis in meas]
            for i in range(2 * n)[span]]
    got = _anticommuting(t, meas, span)
    assert got.dtype == bool and got.shape == (len(want), len(meas))
    assert got.tolist() == want


@settings(max_examples=150, deadline=None)
@example(case=_y_phase_run(), table=1 << 17, block=1 << 20)
@example(case=_ghz_y_run(130), table=1 << 17, block=1 << 20)
@example(case=_ghz_y_run(130), table=256, block=512)
@given(case=determined_runs(), table=st.sampled_from([256, 4096, 1 << 17]),
       block=st.sampled_from([64, 512, 4096, 1 << 20]))
def test_determined_matches_sequential_row_products(case, table, block):
    # _determined on one tableau against the rows multiplied one at a
    # time, word for word; tables of one byte group and blocks down to
    # 64 bytes make it build D, Z_U^T and its products in many pieces.
    t, meas = case
    before = _copy_of(t)
    want = ref_determined(t, meas)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stabilizer, "_TABLE_WORDS", table)
        mp.setattr(stabilizer, "_BLOCK_BYTES", block)
        got = _determined(t, meas)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    _assert_same(t, before)


# ---------------------------------------------------------------------------
# Runs of measurements: run defers each determined outcome to the end of
# its run, across random measurements of other qubits, against one
# measure_pauli replay per shot.


@st.composite
def measurement_runs(draw):
    """Clifford circuits on 1-70 qubits of rounds of a few gates, some
    conditioned on bits already written, then a run of consecutive X/Y/Z
    measurements on 1-4 active qubits into 1-4 bits: a qubit measured
    again in the same axis (determined) or another (random), and bits
    written by a determined outcome and then a random one, or the
    reverse."""
    n = draw(st.integers(1, 70))
    active = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True))
    m = draw(st.integers(1, 4))
    written: list[int] = []
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(_CLIFFORD_KINDS))
            if kind is GateKind.CNOT:
                if len(active) < 2:
                    continue
                targets = tuple(draw(st.permutations(active))[:2])
            else:
                targets = (draw(st.sampled_from(active)),)
            cond = draw(st.sampled_from(written)) if written and draw(st.booleans()) else None
            ops.append(GateApp(kind, targets, condition=cond))
        for _ in range(draw(st.integers(1, 10))):
            dest = draw(st.integers(0, m - 1))
            axis = draw(st.sampled_from(PauliAxis))
            ops.append(Measure(draw(st.sampled_from(active)), axis, dest))
            written.append(dest)
    return Circuit(n, m, tuple(ops))


_H0, _H1 = GateApp(GateKind.H, (0,)), GateApp(GateKind.H, (1,))
# Z on q0 determined, then X on q0 random: the pending outcome must be
# written before the collapse takes Z_0 out of the group
_REMEASURED = Circuit(1, 3, (_H0, Measure(0, PauliAxis.Z, 0), Measure(0, PauliAxis.Z, 1),
                             Measure(0, PauliAxis.X, 2)))
# a determined outcome, then a random one, into c0: the random one wins
_OVERWRITTEN = Circuit(2, 1, (_H1, Measure(0, PauliAxis.Z, 0), Measure(1, PauliAxis.Z, 0)))
# a random outcome, then a determined one, into c0: the determined one wins
_REWRITTEN = Circuit(2, 1, (_H0, Measure(0, PauliAxis.Z, 0), Measure(1, PauliAxis.Z, 0)))


def _determined_then(*after):
    """GHZ-3 measured in Z, one coin and then two determined outcomes,
    the last into c2, followed by ``after``, whose first op reads c2: the
    run must have answered its waiting outcomes by then."""
    z = lambda q, c: Measure(q, PauliAxis.Z, c)
    return Circuit(3, 3, ghz(3).ops + (z(0, 0), z(1, 1), z(2, 2)) + after)


@settings(max_examples=150, deadline=None)
@example(circuit=_REMEASURED, shots=16, seed=1)
@example(circuit=_OVERWRITTEN, shots=16, seed=1)
@example(circuit=_REWRITTEN, shots=16, seed=1)
@example(circuit=_determined_then(GateApp(GateKind.H, (0,), condition=2),
                                  Measure(0, PauliAxis.X, 0)), shots=16, seed=1)
@example(circuit=_determined_then(GateApp(GateKind.CNOT, (2, 1), condition=2),
                                  Measure(1, PauliAxis.Z, 1)), shots=16, seed=1)
@example(circuit=_determined_then(GateApp(GateKind.X, (1,), condition=2),
                                  Measure(1, PauliAxis.Z, 1)), shots=16, seed=1)
@example(circuit=_determined_then(), shots=16, seed=1)
@example(circuit=_constant_flip_circuit(), shots=16, seed=3)
@given(circuit=measurement_runs(), shots=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_measurement_runs_match_a_measure_pauli_replay(circuit, shots, seed):
    # Each shot replayed op by op on one tableau, measure_pauli drawing
    # the shot's own uniforms in order: the counts, and the last shot's
    # tableau as keep_final_state returns it.
    n, m = circuit.n_qubits, circuit.n_cbits
    n_meas = sum(isinstance(op, Measure) for op in circuit.ops)
    uniforms = shot_uniforms(seed, shots, n_meas)
    want: Counter = Counter()
    for i in range(shots):
        t, bits = init_tableau(n), [0] * m
        draws = SimpleNamespace(random=iter(uniforms[i].tolist()).__next__)
        for op in circuit.ops:
            if isinstance(op, Measure):
                bits[op.dest] = (1 - measure_pauli(t, op.qubit, op.axis, draws).outcome) // 2
            elif op.condition is None or bits[op.condition]:
                apply_clifford(t, GateApp(op.kind, op.targets))
        want["".join(map(str, bits))] += 1
    res = run(circuit, shots, seed, keep_final_state=True)
    assert res.counts == dict(sorted(want.items()))
    _assert_same(res.final_state, t)


def test_a_run_defers_its_determined_outcomes_to_one_call(monkeypatch):
    # GHZ-n with a random X measurement of a fresh qubit between every
    # determined Z outcome: the determined ones wait past the collapses
    # and are answered by one _determined call at the end of the run.
    calls = []
    determined = stabilizer._determined

    def counting(t, meas):
        calls.append(len(meas))
        return determined(t, meas)

    monkeypatch.setattr(stabilizer, "_determined", counting)
    n = 20
    ops = list(ghz(n).ops) + [GateApp(GateKind.H, (q,)) for q in range(n, 2 * n)]
    for q in range(n):
        ops += [Measure(q, PauliAxis.Z, q), Measure(n + q, PauliAxis.Z, n + q)]
    res = run(Circuit(2 * n, 2 * n, tuple(ops)), 8, seed=2)
    assert calls == [n - 1]
    assert all(key[:n] in ("0" * n, "1" * n) for key in res.counts)


@pytest.mark.parametrize("subset", [False, True])
def test_write_keys_do_not_depend_on_the_shot_ranges(monkeypatch, subset):
    # One, two and three shot ranges, read in blocks of two shots, write
    # the same keys: each form's constant XOR its coins' parity.
    rng = np.random.default_rng(11)
    coins_count, m, shots = 100, 70, 41
    bits = rng.integers(0, 2, (m, 128), dtype=np.uint8)
    bits[:, coins_count + 1 :] = 0
    forms = np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)
    coins = rng.integers(0, 256, (shots, (coins_count + 7) // 8), dtype=np.uint8)
    rows = np.arange(shots)[rng.random(shots) < 0.6] if subset else np.arange(shots)
    want = np.zeros((shots, 2), dtype=np.uint64)
    want[rows] = key_words(_values(forms, coins[rows]).T)
    monkeypatch.setattr(stabilizer, "_BLOCK_WORDS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch between every few numpy calls
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(stabilizer, "_workers", lambda shots, words: workers)
            keys = np.zeros((shots, 2), dtype=np.uint64)
            _write_keys(forms, coins, rows, keys)
            assert np.array_equal(keys, want)
    finally:
        sys.setswitchinterval(interval)
