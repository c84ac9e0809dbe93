"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single
``[criterion NN] PASS/FAIL`` line (bypassing capture, so the verdicts
always reach the terminal) and then asserts it.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from test_statevector import draw

from qsim.bench import bench_scaling, dispatch_run, random_clifford_circuit
from qsim.circuit import (
    BooleanFunction,
    Circuit,
    GateApp,
    GateKind,
    Measure,
    PauliAxis,
    deutsch,
    gk_entangler,
)
from qsim.cli import cli_dispatch
from qsim.lang import format_circuit
from qsim.lhv import (
    PAULI_ALPHABET,
    CommTopology,
    Infeasible,
    LocalModel,
    chsh_sweep,
    chsh_value,
    enumerate_strategies,
    find_local_model,
    ghz_state,
    mermin_correlators,
    model_table,
    quantum_table,
    simulate_model,
    singlet_state,
    strategy_table,
    table_vector,
)
from qsim.rng import stream
from qsim.stabilizer import (
    apply_clifford,
    init_tableau,
    measure_pauli,
    to_statevector,
)
from qsim.stabilizer import run as run_tableau
from qsim.statevector import (
    MeasurementSpec,
    PureState,
    equal_up_to_global_phase,
    evolve,
    init_state,
    project,
)
from qsim.statevector import run as run_dense

X, Y, Z = PauliAxis.X, PauliAxis.Y, PauliAxis.Z
SQ2 = 1.0 / math.sqrt(2.0)


@pytest.fixture
def say(capsys):
    def _say(num: int, ok: bool, detail: str):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"[criterion {num:02d}] {verdict} — {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _say


@pytest.fixture(scope="module")
def singlet_table():
    return quantum_table(singlet_state(), (PAULI_ALPHABET, PAULI_ALPHABET))


@pytest.fixture(scope="module")
def ghz_table():
    return quantum_table(ghz_state(), (PAULI_ALPHABET,) * 3)


@pytest.fixture(scope="module")
def singlet_model(singlet_table):
    return find_local_model(singlet_table, CommTopology(2, ()))


@pytest.fixture(scope="module")
def ghz_bit_model(ghz_table):
    return find_local_model(ghz_table, CommTopology(3, ((1, 0),)))


def test_criterion_01_entangler_state_both_backends(say):
    want = PureState(2, np.array([0.0, SQ2, -SQ2, 0.0], dtype=np.complex128))
    dense = evolve(gk_entangler())
    tab = run_tableau(gk_entangler(), 1, seed=0, keep_final_state=True).final_state
    ok_dense = equal_up_to_global_phase(dense, want, tol=1e-10)
    ok_tab = equal_up_to_global_phase(to_statevector(tab), want, tol=1e-10)
    say(1, ok_dense and ok_tab, f"dense match={ok_dense}, tableau match={ok_tab}")


def test_criterion_02_born_rule_exact_and_empirical(say):
    plus = evolve(Circuit(1, 0, (GateApp(GateKind.H, (0,)),)))
    analytic = project(plus, MeasurementSpec(0, Z), 1)[0]
    sampled = Circuit(1, 1, (GateApp(GateKind.H, (0,)), Measure(0, Z, 0)))
    counts = run_dense(sampled, 100_000, seed=12).counts
    freq = counts.get("0", 0) / 100_000
    ok = analytic == 0.5 and abs(freq - 0.5) <= 0.01
    say(2, ok, f"analytic p_plus={analytic!r}, empirical +1 frequency={freq:.5f}")


def test_criterion_03_singlet_basis_invariance(say):
    comp_form = PureState(2, np.array([0.0, SQ2, -SQ2, 0.0], dtype=np.complex128))
    # the same state written over the Hadamard basis, mapped back by H x H
    x_coeffs = PureState(2, np.array([0.0, -SQ2, SQ2, 0.0], dtype=np.complex128))
    hh = Circuit(2, 0, (GateApp(GateKind.H, (0,)), GateApp(GateKind.H, (1,))))
    x_form = evolve(hh, start=x_coeffs)
    ta = quantum_table(comp_form, (PAULI_ALPHABET, PAULI_ALPHABET))
    tb = quantum_table(x_form, (PAULI_ALPHABET, PAULI_ALPHABET))
    gap = float(np.max(np.abs(table_vector(ta) - table_vector(tb))))
    say(3, gap <= 1e-12, f"max joint-probability gap across 9 profiles = {gap:.2e}")


def test_criterion_04_deutsch_classification(say):
    verdicts = {}
    for table in ("00", "11", "01", "10"):
        want = "1" if table in ("00", "11") else "0"
        counts = run_dense(deutsch(BooleanFunction.from_string(table)), 1000, seed=8).counts
        verdicts[table] = counts == {want: 1000}
    ok = all(verdicts.values())
    say(4, ok, f"constant/balanced verdicts over 1000 shots each: {verdicts}")


def _random_gk_circuit(rng) -> Circuit:
    """n <= 10, gate depth <= 40, up to 4 Pauli measurements feeding
    conditioned Clifford gates."""
    n = int(rng.integers(2, 11))
    n_gates = int(rng.integers(8, 41))
    n_meas = int(rng.integers(1, 5))
    one_q = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.R, GateKind.H)
    axes = (X, Y, Z)
    slots = sorted(rng.integers(0, n_gates + 1, size=n_meas).tolist())
    ops, written, next_cbit = [], [], 0
    for g in range(n_gates):
        while slots and slots[0] == g:
            slots.pop(0)
            ops.append(Measure(int(rng.integers(n)), axes[int(rng.integers(3))], next_cbit))
            written.append(next_cbit)
            next_cbit += 1
        cond = None
        if written and rng.random() < 0.25:
            cond = written[int(rng.integers(len(written)))]
        k = int(rng.integers(6))
        if k < 5:
            ops.append(GateApp(one_q[k], (int(rng.integers(n)),), condition=cond))
        else:
            c = int(rng.integers(n))
            t = int(rng.integers(n - 1))
            if t >= c:
                t += 1
            ops.append(GateApp(GateKind.CNOT, (c, t), condition=cond))
    for s in slots:
        ops.append(Measure(int(rng.integers(n)), axes[int(rng.integers(3))], next_cbit))
        next_cbit += 1
    return Circuit(n, n_meas, tuple(ops))


def _trajectory_gap(circuit: Circuit, seed: int) -> float:
    """Walk one measurement trajectory on both backends (tableau forced
    to the dense outcomes); the largest |p_plus| disagreement."""
    g = stream(seed)
    state = init_state(circuit.n_qubits)
    tab = init_tableau(circuit.n_qubits)
    cbits = [0] * circuit.n_cbits
    worst = 0.0
    for op in circuit.ops:
        if isinstance(op, Measure):
            outcome, p_plus, state = draw(state, MeasurementSpec(op.qubit, op.axis), g.random())
            bit = (1 - outcome) // 2
            t_out = measure_pauli(tab, op.qubit, op.axis, force_bit=bit)
            worst = max(worst, abs(t_out.p_plus - p_plus))
            cbits[op.dest] = bit
        elif op.condition is not None:
            if cbits[op.condition]:
                bare = GateApp(op.kind, op.targets)
                state = evolve(Circuit(circuit.n_qubits, 0, (bare,)), state)
                apply_clifford(tab, bare)
        else:
            state = evolve(Circuit(circuit.n_qubits, 0, (op,)), state)
            apply_clifford(tab, op)
    return worst


def _tvd(a: dict, b: dict, shots: int) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0) - b.get(k, 0)) for k in keys) / shots


def test_criterion_05_backend_equivalence_on_random_circuits(say):
    rng = np.random.default_rng(20260819)
    worst_p, worst_tvd = 0.0, 0.0
    for i in range(200):
        circuit = _random_gk_circuit(rng)
        worst_p = max(worst_p, _trajectory_gap(circuit, seed=3000 + i))
        a = run_dense(circuit, 10_000, seed=i).counts
        b = run_tableau(circuit, 10_000, seed=i).counts
        worst_tvd = max(worst_tvd, _tvd(a, b, 10_000))
    ok = worst_p <= 1e-9 and worst_tvd < 0.05
    say(
        5,
        ok,
        f"200 circuits: max per-measurement probability gap = {worst_p:.2e}, "
        f"max sampled TVD at 1e4 shots = {worst_tvd:.4f}",
    )


def test_criterion_06_scaling_split(say):
    dense = bench_scaling("sv", range(14, 21), depth=32, shots=4, seed=6)
    stab = bench_scaling(
        "stab", [50, 100, 200, 400, 800], depth=100, shots=1, seed=6,
        depth_scale="linear",
    )
    big = random_clifford_circuit(500, 1000, seed=6)
    t0 = time.perf_counter()
    dispatch_run(big, 1, seed=6, backend="stab")
    big_seconds = time.perf_counter() - t0
    ok = dense.growth >= 0.7 and stab.growth <= 3.5 and big_seconds < 60.0
    say(
        6,
        ok,
        f"dense per-qubit log2 ratio = {dense.growth:.3f} (>= 0.7), "
        f"tableau log-log slope = {stab.growth:.3f} (<= 3.5), "
        f"n=500 depth=1000 run = {big_seconds:.2f}s (< 60)",
    )


def test_criterion_07_chsh_bound_and_violation(say, singlet_table):
    pauli_max = max(
        abs(chsh_value(singlet_table, a, a2, b, b2))
        for a, a2, b, b2 in itertools.product(PAULI_ALPHABET, repeat=4)
    )
    curve = [s for _, s in chsh_sweep(64)]
    peak_at = max(range(len(curve)), key=lambda k: abs(curve[k]))
    peak = abs(curve[peak_at])
    dips_back = any(abs(s) < 2.0 for s in curve[peak_at + 1 :])
    ok = (
        abs(pauli_max - 2.0) <= 1e-9
        and abs(peak - 2.0 * math.sqrt(2.0)) <= 1e-6
        and dips_back
    )
    say(
        7,
        ok,
        f"Pauli-only max |S| = {pauli_max:.12f}, sweep peak = {peak:.8f} "
        f"(2*sqrt(2) = {2 * math.sqrt(2):.8f}), dips below 2 afterwards = {dips_back}",
    )


def _ideal_singlet_table_vector() -> np.ndarray:
    blocks = []
    for a, b in itertools.product(PAULI_ALPHABET, repeat=2):
        blocks.append([0.0, 0.5, 0.5, 0.0] if a == b else [0.25] * 4)
    return np.array(blocks).ravel()


def test_criterion_08_locality_lp(say, singlet_table, ghz_table, singlet_model, ghz_bit_model):
    ok_s = isinstance(singlet_model, LocalModel)
    float_gap = exact_gap = math.inf
    if ok_s:
        float_gap = float(
            np.max(np.abs(table_vector(model_table(singlet_model)) - table_vector(singlet_table)))
        )
        exact_gap = float(
            np.max(
                np.abs(
                    table_vector(model_table(singlet_model, exact=True))
                    - _ideal_singlet_table_vector()
                )
            )
        )
    ok_s = ok_s and float_gap <= 1e-9 and exact_gap == 0.0

    cert = find_local_model(ghz_table, CommTopology(3, ()))
    ok_g0 = isinstance(cert, Infeasible) and cert.violation > 1e-9
    if ok_g0:
        topo = CommTopology(3, ())
        lows = [
            float(cert.coefficients @ table_vector(strategy_table(s, topo, (PAULI_ALPHABET,) * 3)))
            for s in enumerate_strategies(3, (3, 3, 3), topo)
        ]
        ok_g0 = (
            min(lows) >= cert.bound - 1e-9
            and float(cert.coefficients @ table_vector(ghz_table))
            <= cert.bound - cert.violation + 1e-9
        )

    ok_g1 = isinstance(ghz_bit_model, LocalModel)
    bit_gap = math.inf
    if ok_g1:
        bit_gap = float(
            np.max(np.abs(table_vector(model_table(ghz_bit_model)) - table_vector(ghz_table)))
        )
        ok_g1 = bit_gap <= 1e-9

    say(
        8,
        ok_s and ok_g0 and ok_g1,
        f"singlet@0bits gap float={float_gap:.2e} exact={exact_gap:.1e}; "
        f"GHZ@0bits infeasible with re-verified inequality={ok_g0}; "
        f"GHZ@1bit gap={bit_gap:.2e}",
    )


def test_criterion_09_communication_accounting(say, singlet_model, ghz_bit_model):
    rep_s = simulate_model(singlet_model, 100_000, seed=40)
    rep_g = simulate_model(ghz_bit_model, 100_000, seed=41)
    mermin = mermin_correlators(rep_g.empirical)
    target = (1.0, -1.0, -1.0, -1.0)
    gap = max(abs(m - t) for m, t in zip(mermin, target))
    ok = rep_s.bits_used_per_shot == 0 and rep_g.bits_used_per_shot == 1 and gap <= 0.02
    say(
        9,
        ok,
        f"bits/shot: singlet={rep_s.bits_used_per_shot}, ghz={rep_g.bits_used_per_shot}; "
        f"empirical Mermin gap at 1e5 shots = {gap:.4f} (<= 0.02)",
    )


def test_criterion_10_cli_byte_determinism(say, tmp_path):
    circuit = tmp_path / "pair.qc"
    circuit.write_text(
        format_circuit(
            Circuit(
                2,
                2,
                gk_entangler().ops + (Measure(0, Z, 0), Measure(1, Z, 1)),
            )
        )
    )
    model = tmp_path / "model.json"
    assert cli_dispatch(["lhv", "find", "--state", "singlet", "--out", str(model)]) == 0

    # bench is excluded: its rows carry wall-clock timings, which the
    # determinism contract (seed-derived JSON content) does not cover
    invocations = [
        ["run", str(circuit), "--backend", "sv", "--shots", "500", "--seed", "5"],
        ["run", str(circuit), "--backend", "stab", "--shots", "500", "--seed", "5"],
        ["run", str(circuit), "--shots", "500", "--seed", "5"],
        ["bell", "chsh", "--steps", "12", "--seed", "5"],
        ["lhv", "find", "--state", "singlet", "--bits", "0"],
        ["lhv", "find", "--state", "ghz3", "--bits", "0"],
        ["lhv", "simulate", "--model", str(model), "--shots", "5000", "--seed", "5"],
    ]
    stable = []
    for k, argv in enumerate(invocations):
        pair = []
        for rep in ("a", "b"):
            out = tmp_path / f"{k}{rep}.out"
            assert cli_dispatch(argv + ["--out", str(out)]) == 0
            pair.append(out.read_bytes())
        stable.append(pair[0] == pair[1])
    ok = all(stable)
    say(10, ok, f"byte-identical re-runs for {sum(stable)}/{len(stable)} invocations")
