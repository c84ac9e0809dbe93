"""Tableau backend: conjugation against the dense backend, measurement
dichotomy, dense reconstruction, and batched sampling."""

import math

import numpy as np
import pytest

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
from qsim.rng import stream
from qsim.stabilizer import (
    Tableau,
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
    assert t.x.shape == (141, 2)
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
