"""Tableau backend: conjugation against the dense backend, measurement
dichotomy, dense reconstruction, and batched sampling."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from qsim.rng import shot_coins, shot_uniforms, stream
from qsim.stabilizer import (
    Tableau,
    _g_sum,
    _measure_axis,
    _step,
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
    measure,
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
        dense_out = measure(state, MeasurementSpec(q, axis), g)
        state = dense_out.state
        forced = (1 - dense_out.outcome) // 2
        tab_out = measure_pauli(t, q, axis, force_bit=forced)
        assert tab_out.p_plus in (0.0, 0.5, 1.0)
        assert abs(tab_out.p_plus - dense_out.p_plus) < 1e-9
    assert equal_up_to_global_phase(to_statevector(t), state, tol=1e-10)


def test_measure_pauli_needs_single_batch():
    t = init_tableau(2, batch=4)
    with pytest.raises(ValueError):
        measure_pauli(t, 0, PauliAxis.Z, stream(0))


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


def test_to_statevector_guards():
    with pytest.raises(TooManyQubits):
        to_statevector(init_tableau(21))
    with pytest.raises(ValueError):
        to_statevector(init_tableau(2, batch=3))


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
    select = Tableau.select

    def counting_select(t, mask):
        copies.append(1)
        return select(t, mask)

    monkeypatch.setattr(Tableau, "select", counting_select)
    res = run(c, 2000, seed=31)
    assert copies == []
    assert res.counts == run_dense(c, 2000, seed=31).counts
    assert len({key[:3] for key in res.counts}) == 8

    # a conditioned H still splits the batch
    split = Circuit(2, 1, (GateApp(GateKind.H, (0,)), Measure(0, PauliAxis.Z, 0),
                           GateApp(GateKind.H, (1,), condition=0)))
    run(split, 64, seed=1)
    assert copies == [1, 1]


@pytest.mark.parametrize("axis", [PauliAxis.Z, PauliAxis.X])
def test_ghz_measure_all_one_coin_then_determined(axis):
    # GHZ-130 spans three words.  After the first coin every outcome is
    # the sign of a product of up to 129 flagged stabilizer rows, which
    # is -1 in the columns whose coin came up 1.  The X variant rotates
    # the state so that X outcomes are equal and goes through the H
    # conjugation of an X measurement.
    n, batch = 130, 8
    t = init_tableau(n, batch)
    for op in ghz(n).ops:
        apply_clifford(t, op)
    if axis is PauliAxis.X:
        for q in range(n):
            apply_clifford(t, GateApp(GateKind.H, (q,)))
    u = np.linspace(0.05, 0.95, batch)
    coins = (u >= 0.5).astype(np.uint8)
    first, p = _measure_axis(t, 0, axis, coins, None)
    assert np.all(p == 0.5)
    assert np.array_equal(first, (u >= 0.5).astype(np.uint8))
    for q in range(1, n):
        bits, p = _measure_axis(t, q, axis, coins, None)
        assert np.array_equal(bits, first)
        assert np.array_equal(p, (first == 0).astype(float))


# ---------------------------------------------------------------------------
# Differential test: the vectorized sign paths against a sequential
# Aaronson-Gottesman reference that XORs whole sign matrices, computes
# rowsum signs in int64, and accumulates a determined outcome one
# stabilizer row at a time into a scratch row 2n.


def ref_init(n, batch):
    t = init_tableau(n, batch)
    pad = lambda a: np.vstack([a, np.zeros((1, a.shape[1]), dtype=a.dtype)])
    return Tableau(n, pad(t.x), pad(t.z), pad(t.r))


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
            hot = t.select(mask)
            ref_gate(hot, op.kind, op.targets)
            split.append((hot, cb[mask], idx[mask]))
            split.append((t.select(~mask), cb[~mask], idx[~mask]))
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


@settings(max_examples=60, deadline=None)
@example(circuit=_phase_circuit(), shots=16, seed=3)
@given(
    circuit=clifford_feedback_circuits(),
    shots=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_sign_paths_match_sequential_rowsum(circuit, shots, seed):
    # _step keeps bits as (m, shots) and takes coin rows; the reference
    # keeps them as (shots, m) and thresholds the uniforms itself.
    n, m = circuit.n_qubits, circuit.n_cbits
    n_meas = sum(isinstance(op, Measure) for op in circuit.ops)
    uniforms, coins = shot_uniforms(seed, shots, n_meas), shot_coins(seed, shots, n_meas)
    groups = [(init_tableau(n, shots), np.zeros((m, shots), dtype=np.uint8), np.arange(shots))]
    ref = [(ref_init(n, shots), np.zeros((shots, m), dtype=np.uint8), np.arange(shots))]
    mi = 0
    for op in circuit.ops:
        u = c = None
        if isinstance(op, Measure):
            u, c = uniforms[:, mi], coins[mi]
            mi += 1
        groups, ref = _step(groups, op, c), ref_step(ref, op, u)
        assert len(groups) == len(ref)
        for (t, cb, idx), (rt, rcb, ridx) in zip(groups, ref):
            assert np.array_equal(t.x, rt.x[: 2 * n])
            assert np.array_equal(t.z, rt.z[: 2 * n])
            assert np.array_equal(t.r, rt.r[: 2 * n])
            assert np.array_equal(cb, rcb.T) and np.array_equal(idx, ridx)
    want = Counter("".join(map(str, row)) for _, cb, _ in ref for row in cb.tolist())
    assert run(circuit, shots, seed).counts == dict(sorted(want.items()))
