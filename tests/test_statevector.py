"""Dense backend: kernels against a kron-product oracle, measurement
statistics against analytic values, the grouped sampler against a
shot-by-shot replay, and the batched joint-table walk against the
recursive projection tree."""

import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsim import lhv
from qsim import statevector as sv
from qsim.circuit import (
    BooleanFunction,
    Circuit,
    GateApp,
    GateKind,
    Measure,
    OracleApp,
    PauliAxis,
    deutsch,
    gate_matrix,
    ghz,
    gk_entangler,
)
from qsim.errors import TooManyQubits
from qsim.lhv import chsh_sweep, chsh_value, quantum_table, singlet_state, table_vector
from qsim.result import RunResult, count_keys, key_words
from qsim.rng import RNG_ID, shot_uniforms, stream
from qsim.stabilizer import run as run_stabilizer
from qsim.statevector import (
    BlochAxis,
    MeasurementSpec,
    PureState,
    equal_up_to_global_phase,
    evolve,
    init_state,
    joint_probabilities,
    project,
    run,
)

SQ2 = 1.0 / math.sqrt(2.0)


def apply_gate(amps: np.ndarray, n: int, op: GateApp) -> None:
    """One unconditioned gate in place, on a state or on the rows of a
    batch, by the kernel ``evolve`` and ``run`` call for it."""
    if op.kind is GateKind.CNOT:
        sv._apply_cnot(amps, n, *op.targets)
    else:
        sv._apply_1q(amps, n, op.targets[0], sv._ENTRIES[op.kind])


def draw(state: PureState, spec: MeasurementSpec, u: float) -> tuple[int, float, PureState]:
    """One measurement, its outcome drawn as ``run`` draws it: +1 when the
    uniform ``u`` falls below ``_cut(p_plus)``.  Returns the outcome,
    ``p_plus`` and the state :func:`project` collapses to it."""
    p_plus = project(state, spec, 1)[0]
    outcome = 1 if u < sv._cut(p_plus) else -1
    return outcome, p_plus, project(state, spec, outcome)[1]


def kron_reference(circuit: Circuit) -> np.ndarray:
    """Independent evolution: build each op as a full 2^n x 2^n matrix
    with explicit kron products and bit bookkeeping (qubit 0 is the
    leftmost factor), then multiply."""
    n = circuit.n_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    eye = np.eye(2)
    for op in circuit.ops:
        if isinstance(op, GateApp) and op.kind is not GateKind.CNOT:
            factors = [eye] * n
            factors[op.targets[0]] = gate_matrix(op.kind)
            u = factors[0]
            for f in factors[1:]:
                u = np.kron(u, f)
        elif isinstance(op, GateApp):
            c, t = op.targets
            u = np.zeros((1 << n, 1 << n), dtype=complex)
            for basis in range(1 << n):
                cbit = (basis >> (n - 1 - c)) & 1
                out = basis ^ (cbit << (n - 1 - t))
                u[out, basis] = 1.0
        else:  # OracleApp
            u = np.zeros((1 << n, 1 << n), dtype=complex)
            for basis in range(1 << n):
                x = 0
                for j, q in enumerate(op.inputs):
                    x = (x << 1) | ((basis >> (n - 1 - q)) & 1)
                out = basis ^ (op.function(x) << (n - 1 - op.output))
                u[out, basis] = 1.0
        state = u @ state
    return state


# ---------------------------------------------------------------------------
# Evolution kernels


def test_init_state_basis():
    s = init_state(3, "101")
    want = np.zeros(8)
    want[0b101] = 1.0
    assert np.array_equal(s.amps, want)


def test_hadamard_on_zero():
    c = Circuit(1, 0, (GateApp(GateKind.H, (0,)),))
    assert np.allclose(evolve(c).amps, [SQ2, SQ2])


def test_gk_entangler_amplitudes():
    got = evolve(gk_entangler()).amps
    want = np.array([0.0, SQ2, -SQ2, 0.0])
    assert np.allclose(got, want, atol=1e-15)


def test_ghz_amplitudes():
    got = evolve(ghz(3)).amps
    want = np.zeros(8)
    want[0] = want[7] = SQ2
    assert np.allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_random_circuits_match_kron_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    ops = []
    for _ in range(int(rng.integers(3, 12))):
        roll = rng.integers(0, 8)
        if roll < 6:
            kind = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.R, GateKind.H, GateKind.S][roll]
            ops.append(GateApp(kind, (int(rng.integers(n)),)))
        elif roll == 6:
            q = rng.permutation(n)[:2]
            ops.append(GateApp(GateKind.CNOT, (int(q[0]), int(q[1]))))
        else:
            q = rng.permutation(n)
            table = "".join(str(b) for b in rng.integers(0, 2, size=4))
            ops.append(OracleApp(BooleanFunction.from_string(table), (int(q[0]), int(q[1])), int(q[2])) if n >= 3 else GateApp(GateKind.H, (0,)))
    c = Circuit(n, 0, tuple(ops))
    assert np.allclose(evolve(c).amps, kron_reference(c), atol=1e-12)


def test_oracle_is_xor_into_output():
    f = BooleanFunction.from_string("0001")  # AND
    c = Circuit(
        3,
        0,
        (
            GateApp(GateKind.X, (0,)),
            GateApp(GateKind.X, (1,)),
            OracleApp(f, (0, 1), 2),
        ),
    )
    got = evolve(c).amps
    want = np.zeros(8)
    want[0b111] = 1.0
    assert np.array_equal(got, want)


def test_evolve_rejects_measurement_and_condition():
    with pytest.raises(ValueError):
        evolve(Circuit(1, 1, (Measure(0, PauliAxis.Z, 0),)))
    with pytest.raises(ValueError):
        evolve(Circuit(1, 1, (GateApp(GateKind.X, (0,), condition=0),)))


def test_evolve_and_project_leave_their_input_unchanged():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    start = PureState(3, amps / np.linalg.norm(amps))
    before = start.amps.copy()
    c = Circuit(3, 0, (
        GateApp(GateKind.H, (0,)),
        GateApp(GateKind.S, (1,)),
        GateApp(GateKind.CNOT, (2, 0)),
        OracleApp(BooleanFunction.from_string("0110"), (0, 1), 2),
        GateApp(GateKind.Y, (2,)),
    ))
    out = evolve(c, start)
    assert np.array_equal(start.amps, before)
    stepped = start
    for op in c.ops:
        stepped = evolve(Circuit(3, 0, (op,)), stepped)
    assert np.array_equal(out.amps, stepped.amps)
    assert np.array_equal(start.amps, before)
    project(start, MeasurementSpec(1, PauliAxis.X), -1)
    assert np.array_equal(start.amps, before)


def test_evolve_rejects_a_cnot_on_one_qubit():
    with pytest.raises(ValueError, match="cnot needs two distinct qubits"):
        evolve(Circuit(2, 0, (GateApp(GateKind.CNOT, (1, 1)),)))


def test_norm_preserved_over_random_walks():
    rng = np.random.default_rng(99)
    kinds = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.R, GateKind.H, GateKind.S]
    state = init_state(4)
    for _ in range(200):
        op = GateApp(kinds[rng.integers(6)], (int(rng.integers(4)),))
        state = evolve(Circuit(4, 0, (op,)), state)
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_too_many_qubits():
    with pytest.raises(TooManyQubits):
        init_state(25)


@pytest.mark.parametrize("call, message", [
    (lambda: BlochAxis(0.0, 2 * math.pi), r"phi must lie in \[0, 2\*pi\)"),
    (lambda: PureState(2, np.zeros(3)), "amplitude vector must have length 4"),
    (lambda: init_state(0), "need at least one qubit"),
    (lambda: init_state(3, "10"), "bits must be 3 characters of 0/1"),
    (lambda: project(init_state(2), MeasurementSpec(2, PauliAxis.Z), 1), "qubit q2 out of range"),
], ids=["phi-2pi", "amps-length", "no-qubits", "short-bits", "project-range"])
def test_dense_api_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_equal_up_to_global_phase_across_sizes_and_against_zero():
    # states on different qubit counts are never equal; against the
    # all-zero vector only a vector within tol of zero is
    zero = PureState(1, np.zeros(2))
    assert not equal_up_to_global_phase(init_state(1), init_state(2))
    assert not equal_up_to_global_phase(init_state(1), zero)
    assert equal_up_to_global_phase(PureState(1, [1e-11, 0.0]), zero)


# ---------------------------------------------------------------------------
# Measurement


def test_plus_state_z_split_is_exact():
    plus = PureState(1, np.array([SQ2, SQ2]))
    p, collapsed = project(plus, MeasurementSpec(0, PauliAxis.Z), +1)
    assert p == 0.5  # exact, not approximate
    assert np.allclose(collapsed.amps, [1.0, 0.0])


def test_zero_probability_branch_is_none():
    zero = init_state(1)
    p, collapsed = project(zero, MeasurementSpec(0, PauliAxis.Z), -1)
    assert p == 0.0 and collapsed is None


def test_project_outcome_must_be_plus_or_minus_one():
    plus = PureState(1, np.array([SQ2, SQ2]))
    with pytest.raises(ValueError):
        project(plus, MeasurementSpec(0, PauliAxis.Z), 0)


def test_measure_raises_on_impossible_branch():
    # Z on |0> is deterministic +1; the draw cannot pick the dead branch
    outcome, p_plus, _ = draw(init_state(1), MeasurementSpec(0, PauliAxis.Z), 0.999999)
    assert outcome == 1 and p_plus == 1.0


@pytest.mark.parametrize("s_gates, outcome", [(8, 1), (4, -1)])
def test_a_branch_below_the_dust_is_never_drawn(s_gates, outcome, monkeypatch):
    # S^8 = I and S^4 = Z, so H S^k H leaves q0 in a Z eigenstate, yet
    # rounding leaves the other branch 3e-16 or 2e-16 of weight: no
    # uniform, however close to it, may draw that branch
    gates = (GateApp(GateKind.H, (0,)), *[GateApp(GateKind.S, (0,))] * s_gates,
             GateApp(GateKind.H, (0,)))
    circuit = Circuit(1, 1, (*gates, Measure(0, PauliAxis.Z, 0)))
    state = evolve(Circuit(1, 0, gates))
    for u in (0.0, np.nextafter(1.0, 0.0)):
        monkeypatch.setattr(sv, "shot_uniforms", lambda seed, shots, n_meas, first_shot=0:
                            np.full((shots, n_meas), u))
        assert run(circuit, 16, 1).counts == {str((1 - outcome) // 2): 16}
        assert draw(state, MeasurementSpec(0, PauliAxis.Z), u)[0] == outcome


@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2, 2.0, math.pi])
@pytest.mark.parametrize("phi", [0.0, 1.0, 4.5])
def test_bloch_axis_on_zero_state(theta, phi):
    p, _ = project(init_state(1), MeasurementSpec(0, BlochAxis(theta, phi)), +1)
    assert p == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)


def test_y_axis_measurement():
    # (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y
    state = PureState(1, np.array([SQ2, SQ2 * 1j]))
    p, collapsed = project(state, MeasurementSpec(0, PauliAxis.Y), +1)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert equal_up_to_global_phase(collapsed, state)


def test_joint_probabilities_singlet():
    singlet = evolve(gk_entangler())
    zz = joint_probabilities(
        singlet, (MeasurementSpec(0, PauliAxis.Z), MeasurementSpec(1, PauliAxis.Z))
    )
    assert zz[(1, -1)] == pytest.approx(0.5, abs=1e-15)
    assert zz[(-1, 1)] == pytest.approx(0.5, abs=1e-15)
    assert zz[(1, 1)] < 1e-15 and zz[(-1, -1)] < 1e-15
    xz = joint_probabilities(
        singlet, (MeasurementSpec(0, PauliAxis.X), MeasurementSpec(1, PauliAxis.Z))
    )
    for v in xz.values():
        assert v == pytest.approx(0.25, abs=1e-12)
    assert sum(xz.values()) == pytest.approx(1.0, abs=1e-12)


def test_equal_up_to_global_phase():
    a = evolve(ghz(2))
    b = PureState(2, np.exp(0.7j) * a.amps)
    c = PureState(2, np.array([1.0, 0, 0, 0], dtype=complex))
    assert equal_up_to_global_phase(a, b)
    assert not equal_up_to_global_phase(a, c)


# ---------------------------------------------------------------------------
# Sampling


def _measured(circuit: Circuit) -> Circuit:
    ops = list(circuit.ops) + [
        Measure(q, PauliAxis.Z, q) for q in range(circuit.n_qubits)
    ]
    return Circuit(circuit.n_qubits, circuit.n_qubits, tuple(ops))


def test_run_is_deterministic_per_seed():
    c = _measured(ghz(3))
    a = run(c, 500, seed=7)
    b = run(c, 500, seed=7)
    assert a.counts == b.counts
    assert run(c, 500, seed=8).counts != a.counts
    assert a.rng_id == "philox4x64-10"


def test_run_counts_sum_and_support():
    c = _measured(ghz(3))
    res = run(c, 2000, seed=1)
    assert sum(res.counts.values()) == 2000
    assert set(res.counts) == {"000", "111"}


def test_batched_run_matches_unbatched(monkeypatch):
    c = _measured(gk_entangler())
    whole = run(c, 300, seed=3)
    monkeypatch.setattr(sv, "_BATCH_BYTES", 16 * 4 * 7)  # forces tiny batches
    pieces = run(c, 300, seed=3)
    assert whole.counts == pieces.counts


def _scrambled_10() -> tuple:
    """40 H, S and CNOT gates on 10 qubits, for a state whose sums of <O>
    round differently pairwise and in order."""
    ops = []
    for i in range(40):
        q = (3 * i + 1) % 10
        if i % 3 == 2:
            ops.append(GateApp(GateKind.CNOT, (q, (q + 1 + i % 9) % 10)))
        else:
            ops.append(GateApp((GateKind.H, GateKind.S)[i % 3], (q,)))
    return tuple(ops)


def test_a_shots_outcome_does_not_depend_on_its_batch(monkeypatch):
    """Shot 0's uniform at the second measurement lies strictly between its
    row's ``p_plus`` summed pairwise and summed in order.  Run alone, the
    row is its batch's only one; beside the shots that the first
    measurement sends the other way, it is one of two.  Either way, and in
    one-shot chunks, shot 0 takes the outcome of the sum in order."""
    n, ops = 10, _scrambled_10()
    first, second = Measure(0, PauliAxis.Z, 0), Measure(2, PauliAxis.X, 1)
    u = np.full((8, 2), 0.99)
    u[0, 0] = 0.0  # shot 0 gives +1 first (p_plus ~ 0.85), every other shot -1
    monkeypatch.setattr(sv, "shot_uniforms", lambda seed, shots, n_meas, first_shot=0:
                        u[first_shot : first_shot + shots, :n_meas].copy())
    row = run(Circuit(n, 2, (*ops, first)), 1, seed=0, keep_final_state=True).final_state.amps
    obs = sv._observable(second.axis)
    pairwise = 0.5 * (1.0 + ref_expectation(row, n, second.qubit, obs))
    in_order = 0.5 * (1.0 + ref_expectation(row[None], n, second.qubit, obs)[0])
    lo, hi = sorted((pairwise, in_order))
    u[0, 1] = np.nextafter(lo, 1.0)
    assert lo < u[0, 1] < hi
    want = "0" + str(int(u[0, 1] >= in_order))

    circuit = Circuit(n, 2, (*ops, first, second))
    alone = run(circuit, 1, seed=0).counts
    among = run(circuit, 8, seed=0).counts
    monkeypatch.setattr(sv, "_BATCH_BYTES", 16 << n)  # one shot per chunk
    chunked = run(circuit, 8, seed=0).counts
    shot_0 = [[(k, c) for k, c in counts.items() if k[0] == "0"] for counts in (alone, among, chunked)]
    assert shot_0 == [[(want, 1)]] * 3
    assert dict(chunked) == dict(among)


def test_run_holds_one_chunk_of_uniforms():
    # At n = 13 a chunk is 1024 shots, so 10^5 shots are 98 chunks, and
    # each draws its shots' uniforms (64 KiB for 8 measurements) when it
    # starts.  The whole run's uniforms would be 6.1 MiB alone; a chunk
    # at a time the run peaks at about 1.6 MiB.
    n = 13
    c = Circuit(n, 8, tuple(GateApp(GateKind.H, (q,)) for q in range(n))
                + tuple(Measure(q, PauliAxis.Z, q) for q in range(8)))
    run(c, 2, seed=1)  # numpy imports some modules on a first draw
    tracemalloc.start()
    try:
        res = run(c, 10**5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.counts) == 256 and sum(res.counts.values()) == 10**5
    assert peak < 3 * 2**20


@pytest.mark.parametrize(
    "table,want",
    [("00", "1"), ("11", "1"), ("01", "0"), ("10", "0")],
)
def test_deutsch_classification(table, want):
    c = deutsch(BooleanFunction.from_string(table))
    res = run(c, 1000, seed=11)
    assert res.counts == {want: 1000}


def test_conditioned_correction_always_resets():
    text_ops = (
        GateApp(GateKind.H, (0,)),
        GateApp(GateKind.CNOT, (0, 1)),
        Measure(0, PauliAxis.Z, 0),
        GateApp(GateKind.X, (1,), condition=0),
        Measure(1, PauliAxis.Z, 1),
    )
    res = run(Circuit(2, 2, text_ops), 4000, seed=5)
    assert all(key[1] == "0" for key in res.counts)


def test_keep_final_state():
    c = gk_entangler()
    res = run(c, 10, seed=0, keep_final_state=True)
    assert res.final_state is not None
    assert equal_up_to_global_phase(res.final_state, evolve(c))
    assert run(c, 10, seed=0).final_state is None


def test_keep_final_state_after_measurements():
    c = Circuit(
        3,
        2,
        (
            GateApp(GateKind.H, (0,)),
            GateApp(GateKind.CNOT, (0, 1)),
            GateApp(GateKind.H, (2,)),
            Measure(0, PauliAxis.X, 0),
            GateApp(GateKind.Z, (1,), condition=0),
            Measure(2, PauliAxis.Z, 1),
            GateApp(GateKind.S, (1,), condition=1),
        ),
    )
    res = run(c, 37, seed=4, keep_final_state=True)
    _, last = replay_shots(c, 37, seed=4)
    assert np.array_equal(res.final_state.amps, last)


def test_empirical_frequencies_track_probabilities():
    ops = (GateApp(GateKind.H, (0,)), Measure(0, PauliAxis.Z, 0))
    res = run(Circuit(1, 1, ops), 100_000, seed=42)
    assert abs(res.counts["0"] / 100_000 - 0.5) < 0.01


def test_measurement_randomness_differs_across_shots():
    # the per-shot counter-block streams must not repeat draws
    ops = (GateApp(GateKind.H, (0,)), Measure(0, PauliAxis.Z, 0))
    res = run(Circuit(1, 1, ops), 64, seed=1234)
    assert set(res.counts) == {"0", "1"}


def test_run_rejects_invalid_circuit():
    bad = Circuit(1, 0, (GateApp(GateKind.H, (5,)),))
    with pytest.raises(ValueError):
        run(bad, 10, seed=0)
    with pytest.raises(ValueError, match="op 0: qubit q5 out of range"):
        run_stabilizer(bad, 10, seed=0)
    # a hand-built circuit is judged on every run: a list among its ops or
    # its indices can change after a clean run
    ops, targets = [GateApp(GateKind.H, (0,))], [0]
    listed = Circuit(1, 0, ops)
    nested = Circuit(1, 0, (GateApp(GateKind.H, targets),))
    for backend in (run, run_stabilizer):
        backend(listed, 10, seed=0)
        backend(nested, 10, seed=0)
    ops.append(GateApp(GateKind.H, (5,)))
    targets[0] = -1
    for backend in (run, run_stabilizer):
        with pytest.raises(ValueError, match="op 1: qubit q5 out of range"):
            backend(listed, 10, seed=0)
        with pytest.raises(ValueError, match="op 0: qubit q-1 out of range"):
            backend(nested, 10, seed=0)


def test_collapse_renormalizes():
    state = evolve(ghz(3))
    _, _, collapsed = draw(state, MeasurementSpec(1, PauliAxis.X), stream(2024).random())
    assert np.linalg.norm(collapsed.amps) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Grouped sampling against a shot-by-shot replay


def replay_shots(circuit: Circuit, shots: int, seed: int) -> tuple[dict[str, int], np.ndarray]:
    """Run every shot on its own vector with the kernels ``run`` uses;
    returns the histogram and the final amplitudes of the last shot."""
    n = circuit.n_qubits
    n_meas = sum(isinstance(op, Measure) for op in circuit.ops)
    u = shot_uniforms(seed, shots, n_meas)
    counts: Counter = Counter()
    for i in range(shots):
        amps = init_state(n).amps.copy()
        bits = [0] * circuit.n_cbits
        m = 0
        for op in circuit.ops:
            if isinstance(op, OracleApp):
                sv._apply_oracle(amps, n, op)
            elif isinstance(op, GateApp):
                if op.condition is None or bits[op.condition]:
                    apply_gate(amps, n, op)
            else:
                obs = sv._observable(op.axis)
                e = float(sv._expectation(amps, n, op.qubit, obs))
                p_plus = min(max(0.5 * (1.0 + e), 0.0), 1.0)
                if p_plus < sv._DUST:  # a branch below the dust is never drawn
                    outcome = -1
                elif 1.0 - p_plus < sv._DUST:
                    outcome = 1
                else:
                    outcome = 1 if u[i, m] < p_plus else -1
                m += 1
                p = p_plus if outcome == 1 else 1.0 - p_plus
                sv._collapse(amps, n, op.qubit, obs, outcome, p)
                bits[op.dest] = (1 - outcome) // 2
        counts["".join(map(str, bits))] += 1
    return dict(sorted(counts.items())), amps


_KINDS = [GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.R, GateKind.H, GateKind.S]


@st.composite
def feedback_circuits(draw, max_ops=16):
    """Circuits of up to 6 qubits mixing gates, CNOTs, oracles, X/Y/Z
    measurements and gates conditioned on bits already measured.  Some
    start by putting every qubit through H and measuring it in Z, so the
    ops after that act on measured qubits."""
    n = draw(st.integers(1, 6))
    n_cbits = draw(st.integers(1, 3))
    written: list[int] = []
    ops = []
    if draw(st.booleans()):
        ops += [GateApp(GateKind.H, (q,)) for q in range(n)]
        ops += [Measure(q, PauliAxis.Z, q % n_cbits) for q in range(n)]
        written += [q % n_cbits for q in range(n)]
    for _ in range(draw(st.integers(1, max_ops))):
        roll = draw(st.integers(0, 5))
        if roll == 0:
            dest = draw(st.integers(0, n_cbits - 1))
            ops.append(Measure(draw(st.integers(0, n - 1)), draw(st.sampled_from(PauliAxis)), dest))
            written.append(dest)
        elif roll == 1 and n >= 2:
            q = draw(st.permutations(range(n)))
            arity = draw(st.integers(1, min(2, n - 1)))
            table = draw(st.lists(st.integers(0, 1), min_size=1 << arity, max_size=1 << arity))
            ops.append(OracleApp(BooleanFunction(arity, tuple(table)), tuple(q[:arity]), q[arity]))
        elif roll == 2 and n >= 2:
            q = draw(st.permutations(range(n)))
            cond = draw(st.sampled_from(written)) if written and draw(st.booleans()) else None
            ops.append(GateApp(GateKind.CNOT, (q[0], q[1]), condition=cond))
        else:
            cond = draw(st.sampled_from(written)) if written and roll >= 4 else None
            ops.append(GateApp(draw(st.sampled_from(_KINDS)), (draw(st.integers(0, n - 1)),),
                               condition=cond))
    return Circuit(n, n_cbits, tuple(ops))


@settings(max_examples=80, deadline=None)
@given(
    circuit=feedback_circuits(),
    shots=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 120),
)
def test_grouped_run_matches_shot_by_shot_replay(circuit, shots, seed, chunk):
    n = circuit.n_qubits
    with mock.patch.object(sv, "_BATCH_BYTES", chunk * (16 << n)):
        got = run(circuit, shots, seed).counts
    assert got == replay_shots(circuit, shots, seed)[0]


# ---------------------------------------------------------------------------
# Live qubits against the full vector: ``run`` drops a qubit measured in Z
# from its amplitude rows until a gate needs it again.  The reference is
# the loop ``run`` had before, which keeps every row at 2**n amplitudes;
# the two must agree bit for bit, final amplitudes included.


def full_vector_run(circuit: Circuit, shots: int, seed: int, keep_final_state: bool = False):
    n = circuit.n_qubits
    n_meas = sum(isinstance(op, Measure) for op in circuit.ops)
    uniforms = shot_uniforms(seed, shots, n_meas)
    chunk = max(1, sv._BATCH_BYTES // (16 << n))  # rows never outnumber a chunk's shots
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    final_state: PureState | None = None

    for start in range(0, shots, chunk):
        u = uniforms[start : start + chunk]
        group = np.zeros(len(u), dtype=np.intp)
        amps = np.zeros((1, 1 << n), dtype=np.complex128)
        amps[0, 0] = 1.0
        cbits = np.zeros((1, circuit.n_cbits), dtype=np.uint8)
        m = 0
        for op in circuit.ops:
            if isinstance(op, GateApp):
                if op.condition is None:
                    apply_gate(amps, n, op)
                else:
                    mask = cbits[:, op.condition] == 1
                    if mask.all():
                        apply_gate(amps, n, op)
                    elif mask.any():
                        sub = amps[mask]
                        apply_gate(sub, n, op)
                        amps[mask] = sub
            elif isinstance(op, OracleApp):
                sv._apply_oracle(amps, n, op)
            else:
                obs = sv._observable(op.axis)
                e = sv._expectation(amps, n, op.qubit, obs)
                p_plus = np.clip(0.5 * (1.0 + e), 0.0, 1.0)
                # a branch below the dust is never drawn
                q = p_plus[group]
                minus = np.where(q < sv._DUST, True, np.where(1.0 - q < sv._DUST, False, u[:, m] >= q))
                m += 1
                keys, group = np.unique(2 * group + minus, return_inverse=True)
                rows, bit = keys >> 1, (keys & 1).astype(np.uint8)
                if len(keys) > len(amps):  # some row split: one row per new history
                    amps = amps[rows]
                    cbits = cbits[rows]
                p = np.where(bit == 0, p_plus[rows], 1.0 - p_plus[rows])
                sv._collapse(amps, n, op.qubit, obs, 1.0 - 2.0 * bit, p)
                cbits[:, op.dest] = bit
        parts.append((cbits, np.bincount(group, minlength=len(cbits))))
        if keep_final_state:
            final_state = PureState(n, amps[group[-1]].copy())

    words = np.concatenate([key_words(cbits.T) for cbits, _ in parts])
    counts = count_keys(words, circuit.n_cbits, np.concatenate([w for _, w in parts]))
    return RunResult(backend="sv", shots=shots, seed=seed, rng_id=RNG_ID,
                     counts=counts, final_state=final_state)


def _pairwise_row_circuit() -> Circuit:
    """H, S and CNOT on 8 qubits, then q6 and q7 measured in Z and q7 once
    more.  Run as one row, that last, determined measurement's <Z> rounds
    differently summed pairwise than summed in order, and the collapse
    factor 1/sqrt(p) with it: the live row, without q6 and q7, must sum in
    order as the full vector does."""
    ops = []
    for i in range(40):
        q = (5 * i + 1) % 8
        if i % 3 == 2:
            ops.append(GateApp(GateKind.CNOT, (q, (q + 1 + i % 7) % 8)))
        else:
            ops.append(GateApp((GateKind.H, GateKind.S)[i % 3], (q,)))
    ops += [Measure(6, PauliAxis.Z, 0), Measure(7, PauliAxis.Z, 1), Measure(7, PauliAxis.Z, 1)]
    return Circuit(8, 2, tuple(ops))


# One qubit, measured: its rows hold one amplitude each, and S scales the
# rows whose bit is 1 (see ``_scale`` for the one-element product).
_ONE_AMPLITUDE_ROWS = Circuit(1, 1, (
    GateApp(GateKind.H, (0,)), GateApp(GateKind.S, (0,)), GateApp(GateKind.H, (0,)),
    Measure(0, PauliAxis.Z, 0), GateApp(GateKind.S, (0,)), GateApp(GateKind.H, (0,)),
    Measure(0, PauliAxis.Z, 0), GateApp(GateKind.S, (0,)),
))


def _after_measuring_all(*ops, tail: bool = True) -> Circuit:
    """H on q0..q2 and each measured in Z, then ``ops`` and, with ``tail``,
    q0..q2 measured along X, Y and Z.  Enough shots give rows with every
    value of the fixed bits."""
    prefix = [GateApp(GateKind.H, (q,)) for q in range(3)]
    prefix += [Measure(q, PauliAxis.Z, q) for q in range(3)]
    end = [Measure(q, axis, q) for q, axis in enumerate(PauliAxis)] if tail else []
    return Circuit(3, 3, (*prefix, *ops, *end))


def _oracle(table: str, inputs: tuple, output: int) -> OracleApp:
    return OracleApp(BooleanFunction.from_string(table), inputs, output)


# An oracle on q0 q1 -> q2 once all three are fixed: (a) every input and
# the output fixed; (b) q0 fixed and q1 live, so the rows where q0 is 0
# read q1 into q2 and those where it is 1 flip q2's bit before q2 enters
# the rows; (c) the inputs fixed and q2 live in H S H|0>, whose halves
# differ, swapped in the rows where f is 1.
_FIXED_INPUT_ORACLES = (
    _after_measuring_all(_oracle("0110", (0, 1), 2)),
    _after_measuring_all(GateApp(GateKind.H, (1,)), _oracle("0111", (0, 1), 2)),
    _after_measuring_all(GateApp(GateKind.H, (2,)), GateApp(GateKind.S, (2,)),
                         GateApp(GateKind.H, (2,)), _oracle("0110", (0, 1), 2)),
)


def _gate(kind: str, *qubits: int, cif: int | None = None) -> GateApp:
    return GateApp(GateKind[kind], qubits, condition=cif)


# A CNOT from a live qubit onto a measured one makes the target a copy:
# its value is the control's XOR its bit.  Once all three are measured:
# (a) q2 in S H|0> copied onto the lower q0, past the live q1, so the axis
#     moves to q0's place, flipped where q0's bit is 1, before q1 is
#     measured along X over the moved rows;
# (b)-(d) R, Y and X on the copy q1 of q0, whose bit (q1's outcome)
#     differs across rows;
# (e) a Z measurement of the copy q2;
# (f) H on the coordinate q0 while q1 copies it;
# (g) a CNOT onto q2 conditioned on q1's bit, which holds in some rows only;
# (h) an oracle reading the copy q1 and its coordinate q0;
# (i) q1 copied onto q2, then the copy q2 onto the lower q0, so q0 is
#     q1 XOR both bits and the axis moves by that XOR, before Y on q0;
#     q0 and q1 measured in Z into new bits then show the XOR;
# (j) the same copies left in place for the final state;
# (k), (l) X and Y on the coordinate q0 while q1 copies it, conditioned on
#     q2's bit, which holds in some rows only.
_COPIES = (
    _after_measuring_all(_gate("H", 1), _gate("H", 2), _gate("S", 2), _gate("CNOT", 2, 0),
                         Measure(1, PauliAxis.X, 1)),
    _after_measuring_all(_gate("H", 0), _gate("S", 0), _gate("CNOT", 0, 1), _gate("R", 1)),
    _after_measuring_all(_gate("H", 0), _gate("S", 0), _gate("CNOT", 0, 1), _gate("Y", 1)),
    _after_measuring_all(_gate("H", 0), _gate("S", 0), _gate("CNOT", 0, 1), _gate("X", 1),
                         _gate("H", 1)),
    _after_measuring_all(_gate("H", 0), _gate("CNOT", 0, 2), Measure(2, PauliAxis.Z, 2)),
    _after_measuring_all(_gate("H", 0), _gate("S", 0), _gate("CNOT", 0, 1), _gate("H", 0)),
    _after_measuring_all(_gate("H", 0), _gate("S", 0), _gate("CNOT", 0, 2, cif=1)),
    _after_measuring_all(_gate("H", 0), _gate("CNOT", 0, 1), _oracle("0110", (1, 0), 2)),
    Circuit(3, 5, (*_after_measuring_all(_gate("H", 1), _gate("S", 1), _gate("CNOT", 1, 2),
                                         _gate("CNOT", 2, 0), _gate("Y", 0), tail=False).ops,
                   Measure(0, PauliAxis.Z, 3), Measure(1, PauliAxis.Z, 4))),
    _after_measuring_all(_gate("H", 1), _gate("S", 1), _gate("CNOT", 1, 2), _gate("CNOT", 2, 0),
                         _gate("Y", 0), tail=False),
    _after_measuring_all(_gate("H", 0), _gate("S", 0), _gate("CNOT", 0, 1), _gate("X", 0, cif=2)),
    _after_measuring_all(_gate("H", 0), _gate("S", 0), _gate("CNOT", 0, 1), _gate("Y", 0, cif=2)),
)


def _plus_q0(*ops) -> Circuit:
    """H on the untouched q0, which leaves it out of the rows as a plus
    qubit; q1 and q2 live in an entangled state (S and H on q1 first, so
    its H is not its first op, then a CNOT onto q2); then ``ops``, and q0
    to q2 measured along X, Y and Z."""
    ops = (_gate("H", 0), _gate("S", 1), _gate("H", 1), _gate("CNOT", 1, 2), *ops)
    return Circuit(3, 3, (*ops, *(Measure(q, axis, q) for q, axis in enumerate(PauliAxis))))


# A plus qubit q0, its halves equal, that is (a) measured along X or (b)
# along Y; (c) a CNOT control or (d) a CNOT target; (e) an oracle input or
# (f) an oracle output; still a plus qubit when (g) the live q2, in
# H S H S|0> with <Z> not 0, or (h) the fixed q2 is measured in Z, as
# those sums read its terms twice (in (h) a fair coin fixed q2 first, and
# q1 is live in H R S H S|0>); or (i) still one in the final state, with
# q1 live and q2 its copy.  (j) A conditioned H on the untouched q0 runs on
# some rows only, so q0 stays in the rows.  (k) q1 in H S S R H|0>, whose
# 0 half is a rounding residue below the dust, which the fair coin of q0
# must zero as the full vector's does.
_PLUS = (
    _plus_q0(Measure(0, PauliAxis.X, 0)),
    _plus_q0(Measure(0, PauliAxis.Y, 0)),
    _plus_q0(_gate("CNOT", 0, 2)),
    _plus_q0(_gate("CNOT", 1, 0)),
    _plus_q0(_oracle("0111", (0, 1), 2)),
    _plus_q0(_oracle("0110", (1, 2), 0)),
    Circuit(3, 3, (_gate("H", 0), *(_gate(k, 2) for k in "SHSH"), Measure(2, PauliAxis.Z, 2),
                   Measure(0, PauliAxis.Z, 0), Measure(1, PauliAxis.X, 1))),
    Circuit(3, 2, (_gate("H", 0), _gate("H", 2), Measure(2, PauliAxis.Z, 0),
                   *(_gate(k, 1) for k in "SHSRH"), Measure(2, PauliAxis.Z, 1),
                   Measure(1, PauliAxis.X, 1))),
    Circuit(3, 2, (_gate("S", 1), _gate("H", 1), Measure(1, PauliAxis.X, 1), _gate("H", 0),
                   _gate("H", 2), Measure(2, PauliAxis.Z, 0), _gate("CNOT", 1, 2))),
    Circuit(3, 3, (_gate("S", 1), _gate("H", 1), Measure(1, PauliAxis.Z, 1),
                   _gate("H", 0, cif=1), _gate("CNOT", 0, 2),
                   *(Measure(q, axis, q) for q, axis in enumerate(PauliAxis)))),
    Circuit(2, 1, (*(_gate(k, 1) for k in "HRSSH"), _gate("H", 0), Measure(0, PauliAxis.Z, 0))),
)


@settings(max_examples=150, deadline=None)
@given(
    circuit=feedback_circuits(),
    shots=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 120),
)
@example(circuit=_pairwise_row_circuit(), shots=1, seed=3, chunk=120)
@example(circuit=_ONE_AMPLITUDE_ROWS, shots=8, seed=6, chunk=120)
@example(circuit=_FIXED_INPUT_ORACLES[0], shots=64, seed=1, chunk=120)
@example(circuit=_FIXED_INPUT_ORACLES[1], shots=64, seed=2, chunk=120)
@example(circuit=_FIXED_INPUT_ORACLES[2], shots=64, seed=3, chunk=120)
@example(circuit=_COPIES[0], shots=64, seed=4, chunk=120)
@example(circuit=_COPIES[1], shots=64, seed=5, chunk=120)
@example(circuit=_COPIES[2], shots=64, seed=6, chunk=120)
@example(circuit=_COPIES[3], shots=64, seed=7, chunk=120)
@example(circuit=_COPIES[4], shots=64, seed=8, chunk=120)
@example(circuit=_COPIES[5], shots=64, seed=9, chunk=120)
@example(circuit=_COPIES[6], shots=64, seed=10, chunk=120)
@example(circuit=_COPIES[7], shots=64, seed=11, chunk=120)
@example(circuit=_COPIES[8], shots=64, seed=12, chunk=120)
@example(circuit=_COPIES[9], shots=64, seed=13, chunk=120)
@example(circuit=_COPIES[10], shots=64, seed=25, chunk=120)
@example(circuit=_COPIES[11], shots=64, seed=26, chunk=120)
@example(circuit=_PLUS[0], shots=64, seed=14, chunk=120)
@example(circuit=_PLUS[1], shots=64, seed=15, chunk=120)
@example(circuit=_PLUS[2], shots=64, seed=16, chunk=120)
@example(circuit=_PLUS[3], shots=64, seed=17, chunk=120)
@example(circuit=_PLUS[4], shots=64, seed=18, chunk=120)
@example(circuit=_PLUS[5], shots=64, seed=19, chunk=120)
@example(circuit=_PLUS[6], shots=64, seed=20, chunk=120)
@example(circuit=_PLUS[7], shots=64, seed=21, chunk=120)
@example(circuit=_PLUS[8], shots=64, seed=22, chunk=120)
@example(circuit=_PLUS[9], shots=64, seed=23, chunk=120)
@example(circuit=_PLUS[10], shots=8, seed=24, chunk=120)
def test_live_run_matches_full_vector_run(circuit, shots, seed, chunk):
    with mock.patch.object(sv, "_BATCH_BYTES", chunk * (16 << circuit.n_qubits)):
        got = run(circuit, shots, seed, keep_final_state=True)
        want = full_vector_run(circuit, shots, seed, keep_final_state=True)
    assert got.counts == want.counts
    assert np.array_equal(got.final_state.amps, want.final_state.amps)
    # np.array_equal lets +0.0 equal -0.0; every other part must match bit for bit
    g, w = got.final_state.amps.view(np.float64), want.final_state.amps.view(np.float64)
    nonzero = (g != 0) | (w != 0)
    assert np.array_equal(g[nonzero].view(np.int64), w[nonzero].view(np.int64))


def test_fixed_qubit_norms_are_summed_in_order():
    """Measuring q0 in Z again, once it is fixed, sums each row's norms.
    One row or several, that sum must run in order, as the full vector's
    does, or the collapse factor 1/sqrt(p) moves; summed pairwise over the
    live norms, each run below ends on other amplitudes."""
    z0 = Measure(0, PauliAxis.Z, 0)
    circuit = Circuit(10, 2, (*_scrambled_10(), z0, Measure(2, PauliAxis.X, 1), z0))
    for shots, seed in ((1, 0), (1, 1), (8, 0), (8, 1)):
        got = run(circuit, shots, seed, keep_final_state=True)
        want = full_vector_run(circuit, shots, seed, keep_final_state=True)
        assert got.counts == want.counts
        assert np.array_equal(got.final_state.amps, want.final_state.amps)


def test_outcome_against_a_measured_bit_collapses_the_row_to_zero():
    # A row whose norm fell short of 1 by more than 2e-12 gives the outcome
    # that its measured qubit's bit rules out a weight above the dust.  The
    # full vector collapses onto its zero half, so the row must too.
    z = (0, PauliAxis.Z, 0)  # qubit, axis, bit
    rows = sv._Histories(1, 1)
    group = rows.measure(*z, np.array([0.5]), np.zeros(1, dtype=np.intp))
    rows.amps *= 1.0 - 1e-11
    full = rows.state(0)[None]
    rows.measure(*z, np.array([1.0 - 1e-13]), group)
    p = 1.0 - np.clip(0.5 * (1.0 + sv._expectation(full, 1, 0, sv._observable(PauliAxis.Z))), 0, 1)
    assert p[0] > sv._DUST
    sv._collapse(full, 1, 0, sv._observable(PauliAxis.Z), -1.0, p)
    assert rows.cbits.tolist() == [[1]]
    assert np.array_equal(rows.state(0), full[0]) and not full.any()


def test_an_oracle_reads_fixed_inputs_as_row_bits():
    # After H and a Z measurement on each qubit, 16 shots hold rows with
    # several values of the three bits; an oracle on them keeps every
    # qubit out of the rows and flips q2's bit by f(q0, q1).
    rows = sv._Histories(3, 3)
    group = np.zeros(16, dtype=np.intp)
    uniforms = stream(5).random((3, 16))
    for q in range(3):
        rows.gate(GateKind.H, [q], -1)
        group = rows.measure(q, PauliAxis.Z, q, uniforms[q], group)
    bits = rows.cbits.copy()
    assert len({tuple(b) for b in bits[:, :2]}) > 1
    rows.oracle(BooleanFunction.from_string("0110"), [0, 1, 2])
    assert rows.live == [] and rows.amps.shape[1] == 1
    q2 = rows._bit(2)
    assert q2.tolist() == (bits[:, 2] ^ bits[:, 0] ^ bits[:, 1]).tolist()


def test_a_cnot_onto_a_measured_qubit_records_a_copy():
    # After H and a Z measurement on both qubits, q1 back in superposition
    # controls a CNOT onto the measured q0: the rows keep one axis, now
    # q0's, and q1 is q0's copy, its bit q0's measured value.
    rows = sv._Histories(2, 2)
    group = np.zeros(16, dtype=np.intp)
    uniforms = stream(5).random((2, 16))
    for q in range(2):
        rows.gate(GateKind.H, [q], -1)
        group = rows.measure(q, PauliAxis.Z, q, uniforms[q], group)
    assert len(set(rows.cbits[:, 0].tolist())) == 2
    full = [rows.state(r) for r in range(len(rows.amps))]
    rows.gate(GateKind.H, [1], -1)
    rows.gate(GateKind.CNOT, [1, 0], -1)
    assert rows.live == [0] and rows.copy_of == {1: 0}
    assert rows._bit(1).tolist() == rows.cbits[:, 0].tolist()
    for r, amps in enumerate(full):
        amps = amps[None].copy()
        sv._apply_1q(amps, 2, 1, sv._ENTRIES[GateKind.H])
        sv._apply_cnot(amps, 2, 1, 0)
        assert np.array_equal(rows.state(r), amps[0])


def test_a_fresh_h_leaves_its_qubit_out_of_the_rows():
    # H on each of three untouched qubits halves the rows: all three are
    # plus qubits, and the one row holds u00**3.  A Z measurement of q1 is
    # a fair coin that fixes it at each shot's outcome, and the final
    # states put q0 and q2 back with both halves equal, as the full vector
    # holds them.
    rows = sv._Histories(3, 1)
    for q in range(3):
        rows.gate(GateKind.H, [q], -1, fresh=True)
    assert rows.live == [] and rows.plus == {0, 1, 2} and rows.amps.shape == (1, 1)
    group = rows.measure(1, PauliAxis.Z, 0, np.array([0.2, 0.7, 0.4]), np.zeros(3, dtype=np.intp))
    assert group.tolist() == [0, 1, 0] and rows.cbits.tolist() == [[0], [1]]
    assert rows.plus == {0, 2} and rows._bit(1).tolist() == [0, 1]
    full = np.zeros((1, 8), dtype=np.complex128)
    full[0, 0] = 1.0
    for q in range(3):
        apply_gate(full, 3, GateApp(GateKind.H, (q,)))
    for r, outcome in enumerate((1.0, -1.0)):
        want = full.copy()
        sv._collapse(want, 3, 1, sv._observable(PauliAxis.Z), outcome, 0.5)
        assert np.array_equal(rows.state(r), want[0])
    assert rows.plus == set() and rows.live == [0, 2]


@settings(max_examples=60, deadline=None)
@given(circuit=feedback_circuits(max_ops=60), shots=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_run_final_state_has_unit_norm(circuit, shots, seed):
    state = run(circuit, shots, seed, keep_final_state=True).final_state
    assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Differential test: the strided-view kernels against reference kernels
# that gather both halves of every pair through index arrays and apply the
# full 2x2 formulas.  The replay above runs the same kernels as ``run``, so
# it cannot catch a kernel bug; this comparison also catches any change in
# rounding, which would break the seed contract.


def ref_pairs(n, q):
    step = 1 << (n - 1 - q)
    base = np.arange(0, 1 << n, step << 1)
    idx0 = (base[:, None] + np.arange(step)[None, :]).ravel()
    return idx0, idx0 + step


def ref_apply_gate(amps, n, op):
    if op.kind is GateKind.CNOT:
        c, t = op.targets
        v = np.arange(1 << n)
        i0 = v[((v >> (n - 1 - c)) & 1 == 1) & ((v >> (n - 1 - t)) & 1 == 0)]
        i1 = i0 + (1 << (n - 1 - t))
        a = amps[..., i0]
        amps[..., i0] = amps[..., i1]
        amps[..., i1] = a
        return
    u = gate_matrix(op.kind)
    idx0, idx1 = ref_pairs(n, op.targets[0])
    a0 = amps[..., idx0]
    a1 = amps[..., idx1]
    amps[..., idx0] = u[0, 0] * a0 + u[0, 1] * a1
    amps[..., idx1] = u[1, 0] * a0 + u[1, 1] * a1


def ref_expectation(amps, n, q, obs):
    idx0, idx1 = ref_pairs(n, q)
    a0 = amps[..., idx0]
    a1 = amps[..., idx1]
    per_pair = (
        obs[0, 0].real * (a0.real * a0.real + a0.imag * a0.imag)
        + obs[1, 1].real * (a1.real * a1.real + a1.imag * a1.imag)
        + 2.0 * (np.conj(a0) * a1 * obs[0, 1]).real
    )
    if per_pair.ndim == 2:  # a batch sums each row term by term, in order
        return np.cumsum(per_pair, axis=-1)[:, -1]
    return per_pair.sum(axis=-1)


def ref_collapse(amps, n, q, obs, outcome, p):
    idx0, idx1 = ref_pairs(n, q)
    a0 = amps[..., idx0]
    a1 = amps[..., idx1]
    t0 = obs[0, 0] * a0 + obs[0, 1] * a1
    t1 = obs[1, 0] * a0 + obs[1, 1] * a1
    s = np.asarray(outcome, dtype=np.float64)
    scale = 2.0 * np.sqrt(np.asarray(p, dtype=np.float64))
    if s.ndim:
        s = s[:, None]
        scale = scale[:, None]
    amps[..., idx0] = (a0 + s * t0) / scale
    amps[..., idx1] = (a1 + s * t1) / scale
    small = np.abs(amps) < sv._DUST
    if small.any():
        amps[small] = 0.0


@st.composite
def amplitude_arrays(draw):
    """Normalized amplitudes of n <= 10 qubits, 1-D or one row per
    history (up to 16, as many as ``sv-wide``'s batches hold): Gaussian,
    or multiples of 1/sqrt(2)**k by 0, +-1, +-i (where symmetric terms
    cancel exactly), some entries zeroed or shrunk to collapse dust."""
    n = draw(st.integers(1, 10))
    rows = draw(st.sampled_from([None, 1, 2, 3, 5, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (1 << n,) if rows is None else (rows, 1 << n)
    if draw(st.booleans()):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    else:
        amps = rng.choice(np.array([0, 1, -1, 1j, -1j]), size=shape) * SQ2 ** draw(st.integers(0, 3))
    amps[rng.random(shape) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    amps[rng.random(shape) < draw(st.sampled_from([0.0, 0.05]))] *= 1e-13
    flat = amps.reshape(-1, 1 << n)
    flat[np.abs(flat).sum(axis=1) == 0, 0] = 1.0  # no all-zero row
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    return n, amps, rng


_ONE_QUBIT_KINDS = [k for k in GateKind if k is not GateKind.CNOT]


def _one_qubit_rows() -> np.ndarray:
    amps = np.array([[0.6, 0.8j], [SQ2, -SQ2], [0.28 + 0.96j, 0.0], [-0.8j, 0.6 + 0.0j]])
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def _zeros_and_dust_rows() -> np.ndarray:
    amps = np.array([
        [0.5, 1e-13, -0.5j, 0.5, 0.0, 2e-13j, 0.0, -3e-14],
        [0.6, 0.0, 0.0, 0.0, 0.8j, 0.0, 4e-13 - 1e-13j, 0.0],
    ])
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(case=amplitude_arrays(), theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 6.28))
# One qubit: S scales a one-element half, where numpy's in-place complex
# product rounds differently from ``u * a``.
@example(case=(1, np.array([0.6, 0.48 + 0.64j]), np.random.default_rng(0)), theta=1.0, phi=2.0)
# One-element halves through H and through X and Y collapses, with scalar
# outcomes and with one outcome per row.
@example(case=(1, np.array([0.28 - 0.96j, 0.0]), np.random.default_rng(1)), theta=0.5, phi=4.0)
@example(case=(1, _one_qubit_rows(), np.random.default_rng(2)), theta=2.0, phi=1.0)
# A half holding exact zeros and dust before an X or Y collapse; in the
# pair q0 joins at indices 1 and 5 both amplitudes are dust.
@example(case=(3, _zeros_and_dust_rows(), np.random.default_rng(3)), theta=1.5, phi=3.0)
def test_kernels_match_index_array_reference(case, theta, phi):
    n, amps, rng = case
    ops = [GateApp(k, (q,)) for q in range(n) for k in _ONE_QUBIT_KINDS]
    ops += [GateApp(GateKind.CNOT, (c, t)) for c in range(n) for t in range(n) if c != t]
    for op in ops:
        want, got = amps.copy(), amps.copy()
        ref_apply_gate(want, n, op)
        apply_gate(got, n, op)
        assert np.array_equal(got, want), op

    axes = list(PauliAxis) + [BlochAxis(theta, phi), BlochAxis(0.0, phi)]
    for q in range(n):
        for axis in axes:
            obs = sv._observable(axis)
            e = ref_expectation(amps, n, q, obs)
            assert np.array_equal(sv._expectation(amps, n, q, obs), e), (q, axis)
            p_plus = np.clip(0.5 * (1.0 + e), 0.0, 1.0)
            if amps.ndim == 1:
                cases = [(o, p_plus if o == 1 else 1.0 - p_plus) for o in (1, -1)]
                cases = [(o, float(p)) for o, p in cases if p >= sv._DUST]
            else:  # a random outcome per row, flipped where it has no weight
                o = rng.choice([1.0, -1.0], size=len(amps))
                o = np.where(np.where(o > 0, p_plus, 1.0 - p_plus) < sv._DUST, -o, o)
                cases = [(o, np.where(o > 0, p_plus, 1.0 - p_plus))]
            for outcome, p in cases:
                want, got = amps.copy(), amps.copy()
                ref_collapse(want, n, q, obs, outcome, p)
                sv._collapse(got, n, q, obs, outcome, p)
                assert np.array_equal(got, want), (q, axis, outcome)


def ref_oracle_perm(n, inputs, output, table):
    """The basis permutation of an XOR oracle: index v goes to v with
    f(x) XORed into the output bit, x read from the inputs (first listed
    input is the top bit of x)."""
    v = np.arange(1 << n)
    x = np.zeros(1 << n, dtype=np.int64)
    for q in inputs:
        x = (x << 1) | ((v >> (n - 1 - q)) & 1)
    return v ^ (np.asarray(table, dtype=np.int64)[x] << (n - 1 - output))


@st.composite
def oracle_cases(draw):
    """A random truth table on distinct inputs in any order, with the
    output anywhere among them, on 1-D or (R, 2**n) amplitudes."""
    n = draw(st.integers(2, 9))
    qubits = draw(st.permutations(range(n)))
    k = draw(st.integers(1, n - 1))
    inputs, output = tuple(qubits[:k]), qubits[k]
    table = tuple(draw(st.lists(st.integers(0, 1), min_size=1 << k, max_size=1 << k)))
    rows = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (1 << n,) if rows is None else (rows, 1 << n)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return n, OracleApp(BooleanFunction(k, table), inputs, output), amps


@settings(max_examples=100, deadline=None)
@given(case=oracle_cases())
def test_oracle_kernel_matches_permutation_reference(case):
    n, op, amps = case
    want = amps[..., ref_oracle_perm(n, op.inputs, op.output, op.function.table)]
    got = amps.copy()
    sv._apply_oracle(got, n, op)
    assert np.array_equal(got, want)


_CLIFFORD_KINDS = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.R]


@st.composite
def conditioned_clifford_circuits(draw):
    """Clifford circuits of up to 6 qubits with X/Y/Z measurements and
    x/y/z/h/r/cnot gates, some conditioned on bits already measured."""
    n = draw(st.integers(1, 6))
    n_cbits = draw(st.integers(1, 3))
    written: list[int] = []
    ops = []
    for _ in range(draw(st.integers(1, 20))):
        roll = draw(st.integers(0, 4))
        cond = draw(st.sampled_from(written)) if written and draw(st.booleans()) else None
        if roll == 0:
            dest = draw(st.integers(0, n_cbits - 1))
            ops.append(Measure(draw(st.integers(0, n - 1)), draw(st.sampled_from(PauliAxis)), dest))
            written.append(dest)
        elif roll == 1 and n >= 2:
            q = draw(st.permutations(range(n)))
            ops.append(GateApp(GateKind.CNOT, (q[0], q[1]), condition=cond))
        else:
            ops.append(GateApp(draw(st.sampled_from(_CLIFFORD_KINDS)),
                               (draw(st.integers(0, n - 1)),), condition=cond))
    return Circuit(n, n_cbits, tuple(ops))


@settings(max_examples=80, deadline=None)
@given(circuit=conditioned_clifford_circuits(), shots=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_dense_and_tableau_counts_agree_on_clifford_circuits(circuit, shots, seed):
    # The tableau draws a random outcome with p_plus exactly 0.5, so the
    # dense backend agrees shot for shot only if its p_plus is 0.5 too.
    assert run(circuit, shots, seed).counts == run_stabilizer(circuit, shots, seed).counts


# ---------------------------------------------------------------------------
# Joint tables: the batched projection walk against the recursive tree


def ref_joint_probabilities(state, specs):
    """One ``project`` per node of the recursive projection tree; a dead
    branch (no collapsed state, or weight 0) gives its descendants 0.0."""
    out = {}

    def walk(st_, depth, prefix, weight):
        if depth == len(specs):
            out[prefix] = weight
            return
        for o in (1, -1):
            if st_ is None or weight == 0.0:
                walk(None, depth + 1, prefix + (o,), 0.0)
                continue
            p, collapsed = project(st_, specs[depth], o)
            walk(collapsed, depth + 1, prefix + (o,), weight * p)

    walk(state, 0, (), 1.0)
    return out


def ref_table_vector(state, alphabets):
    """``table_vector(quantum_table(...))`` built one profile at a time."""
    rows = []
    for profile in itertools.product(*alphabets):
        specs = tuple(MeasurementSpec(q, axis) for q, axis in enumerate(profile))
        rows.append(list(ref_joint_probabilities(state, specs).values()))
    return np.array(rows, dtype=np.float64).ravel()


def _same_bits(got: dict, want: dict) -> bool:
    return list(got) == list(want) and (
        np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
    )


_SETTINGS = st.one_of(
    st.sampled_from(list(PauliAxis)),
    st.builds(
        BlochAxis,
        theta=st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi)),
        phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    ),
)


@st.composite
def joint_cases(draw):
    """A normalized state of 1-5 qubits (Gaussian, or 0/+-1/+-i entries
    where branches die exactly, some shrunk below the collapse threshold)
    and 1-3 settings per qubit."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    else:
        amps = rng.choice(np.array([0, 1, -1, 1j, -1j]), size=1 << n)
    amps[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    amps[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.2]))] *= 1e-7  # branches below 1e-12
    if not amps.any():
        amps[draw(st.integers(0, (1 << n) - 1))] = 1.0
    amps /= np.linalg.norm(amps)
    alphabets = draw(st.lists(st.lists(_SETTINGS, min_size=1, max_size=3), min_size=n, max_size=n))
    return PureState(n, amps), alphabets


_ZERO_BRANCH_CASES = [
    (evolve(ghz(3)), [[PauliAxis.Z]] * 3),
    (evolve(ghz(3)), [[PauliAxis.Z, PauliAxis.X, BlochAxis(math.pi, 0.5)]] * 3),
    (init_state(4), [[PauliAxis.Z, BlochAxis(0.0, 1.0)]] * 4),
    (init_state(3, "101"), [[PauliAxis.Z, PauliAxis.Y]] * 3),
]


def _check_joint_case(state, alphabets):
    for profile in itertools.product(*alphabets):
        order = np.random.default_rng(len(profile)).permutation(state.n)  # not always q0 first
        for qubits in (range(state.n), order[: max(1, state.n - 1)]):
            specs = tuple(MeasurementSpec(int(q), profile[int(q)]) for q in qubits)
            assert _same_bits(joint_probabilities(state, specs), ref_joint_probabilities(state, specs))
    if state.n >= 2:
        got = table_vector(quantum_table(state, alphabets))
        assert got.tobytes() == ref_table_vector(state, alphabets).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=joint_cases())
def test_joint_tables_match_recursive_tree(case):
    _check_joint_case(*case)


@pytest.mark.parametrize("state, alphabets", _ZERO_BRANCH_CASES)
def test_joint_tables_match_recursive_tree_on_dead_branches(state, alphabets):
    _check_joint_case(state, alphabets)


def test_joint_walk_split_under_memory_budget(monkeypatch):
    # a budget smaller than one child level makes the walk split its
    # parents over and over; rows never interact, so the bits stay
    state, alphabets = evolve(ghz(4)), [[PauliAxis.X, BlochAxis(1.1, 4.0), PauliAxis.Z]] * 4
    want = table_vector(quantum_table(state, alphabets)).tobytes()
    monkeypatch.setattr(sv, "_BATCH_BYTES", 64)
    assert table_vector(quantum_table(state, alphabets)).tobytes() == want
    assert want == ref_table_vector(state, alphabets).tobytes()


def test_chsh_sweep_matches_per_point_tables():
    # 130 steps span two walks of the sweep
    for steps in (8, 130):
        got = chsh_sweep(steps)
        state = singlet_state()
        for (t, s), (t_ref, (a, a2), (b, b2)) in zip(got, _chsh_points(steps)):
            ref = ref_table_vector(state, ((a, a2), (b, b2))).reshape(4, 4)
            table = lhv._table_from_matrix(((a, a2), (b, b2)), ref)
            assert (t, s) == (t_ref, chsh_value(table, a, a2, b, b2))


def _chsh_points(steps):
    tau = 2.0 * math.pi
    for k in range(steps + 1):
        t = math.pi * k / steps
        eq = [BlochAxis(math.pi / 2, phi) for phi in (0.0, (2.0 * t) % tau, t % tau, (-t) % tau)]
        yield t, tuple(eq[:2]), tuple(eq[2:])


@pytest.mark.parametrize("qubits", [(0, 0), (1, 0, 1), (3,), (-1,)])
def test_joint_probabilities_rejects_bad_qubits(qubits):
    specs = tuple(MeasurementSpec(q, PauliAxis.Z) for q in qubits)
    with pytest.raises(ValueError):
        joint_probabilities(evolve(ghz(3)), specs)
