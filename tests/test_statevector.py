"""Dense backend: kernels against a kron-product oracle, measurement
statistics against analytic values, the grouped sampler against a
shot-by-shot replay, and the batched joint-table walk against the
recursive projection tree."""

import itertools
import math
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
from qsim.errors import DegenerateNorm, TooManyQubits
from qsim.lhv import chsh_sweep, chsh_value, quantum_table, singlet_state, table_vector
from qsim.rng import shot_uniforms, stream
from qsim.stabilizer import run as run_stabilizer
from qsim.statevector import (
    BlochAxis,
    MeasurementSpec,
    PureState,
    equal_up_to_global_phase,
    evolve,
    init_state,
    joint_probabilities,
    measure,
    project,
    run,
)

SQ2 = 1.0 / math.sqrt(2.0)


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


def test_evolve_apply_op_and_measure_leave_their_input_unchanged():
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
        stepped = sv.apply_op(stepped, op)
    assert np.array_equal(out.amps, stepped.amps)
    assert np.array_equal(start.amps, before)
    project(start, MeasurementSpec(1, PauliAxis.X), -1)
    measure(start, MeasurementSpec(2, PauliAxis.Z), stream(3))
    assert np.array_equal(start.amps, before)


def test_norm_preserved_over_random_walks():
    rng = np.random.default_rng(99)
    kinds = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.R, GateKind.H, GateKind.S]
    state = init_state(4)
    for _ in range(200):
        op = GateApp(kinds[rng.integers(6)], (int(rng.integers(4)),))
        state = sv.apply_op(state, op)
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_too_many_qubits():
    with pytest.raises(TooManyQubits):
        init_state(25)


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


def test_measure_raises_on_impossible_branch():
    zero = init_state(1)

    class AlwaysHigh:
        def random(self):
            return 0.999999

    # Z on |0> is deterministic +1; the rng draw cannot pick the dead branch
    out = measure(zero, MeasurementSpec(0, PauliAxis.Z), AlwaysHigh())
    assert out.outcome == 1 and out.p_plus == 1.0


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
    assert res.final_state_available
    assert equal_up_to_global_phase(res.final_state, evolve(c))
    assert not run(c, 10, seed=0).final_state_available


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


def test_collapse_renormalizes():
    rng = stream(2024)
    state = evolve(ghz(3))
    out = measure(state, MeasurementSpec(1, PauliAxis.X), rng)
    assert np.linalg.norm(out.state.amps) == pytest.approx(1.0, abs=1e-12)


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
                    sv._apply_gate(amps, n, op)
            else:
                obs = sv._observable(op.axis)
                e = float(sv._expectation(amps, n, op.qubit, obs))
                p_plus = min(max(0.5 * (1.0 + e), 0.0), 1.0)
                outcome = 1 if u[i, m] < p_plus else -1
                m += 1
                p = p_plus if outcome == 1 else 1.0 - p_plus
                if p < sv._DUST:
                    raise DegenerateNorm("collapse onto a zero-weight branch")
                sv._collapse(amps, n, op.qubit, obs, outcome, p)
                bits[op.dest] = (1 - outcome) // 2
        counts["".join(map(str, bits))] += 1
    return dict(sorted(counts.items())), amps


_KINDS = [GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.R, GateKind.H, GateKind.S]


@st.composite
def feedback_circuits(draw):
    """Circuits of up to 6 qubits mixing gates, CNOTs, oracles, X/Y/Z
    measurements and gates conditioned on bits already measured."""
    n = draw(st.integers(1, 6))
    n_cbits = draw(st.integers(1, 3))
    written: list[int] = []
    ops = []
    for _ in range(draw(st.integers(1, 16))):
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


def _counts_or_error(fn):
    try:
        return fn()
    except DegenerateNorm:
        return DegenerateNorm


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
        got = _counts_or_error(lambda: run(circuit, shots, seed).counts)
    want = _counts_or_error(lambda: replay_shots(circuit, shots, seed)[0])
    assert got == want


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
    history: Gaussian, or multiples of 1/sqrt(2)**k by 0, +-1, +-i (where
    symmetric terms cancel exactly), some entries zeroed or shrunk to
    collapse dust."""
    n = draw(st.integers(1, 10))
    rows = draw(st.sampled_from([None, 1, 2, 3, 5]))
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


@settings(max_examples=60, deadline=None)
@given(case=amplitude_arrays(), theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 6.28))
# One qubit: S scales a one-element half, where numpy's in-place complex
# product rounds differently from ``u * a``.
@example(case=(1, np.array([0.6, 0.48 + 0.64j]), np.random.default_rng(0)), theta=1.0, phi=2.0)
def test_kernels_match_index_array_reference(case, theta, phi):
    n, amps, rng = case
    ops = [GateApp(k, (q,)) for q in range(n) for k in _ONE_QUBIT_KINDS]
    ops += [GateApp(GateKind.CNOT, (c, t)) for c in range(n) for t in range(n) if c != t]
    for op in ops:
        want, got = amps.copy(), amps.copy()
        ref_apply_gate(want, n, op)
        sv._apply_gate(got, n, op)
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
