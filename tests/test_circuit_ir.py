"""Circuit IR, validation, classification, builders, and the text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.circuit import (
    BooleanFunction,
    Circuit,
    GateApp,
    GateKind,
    Measure,
    OracleApp,
    PauliAxis,
    classify_gottesman_knill,
    deutsch,
    gate_matrix,
    ghz,
    gk_entangler,
    validate,
)
from qsim.errors import (
    ArityMismatch,
    IndexOutOfRange,
    MalformedHeader,
    ParseError,
    UndefinedConditionBit,
    UnknownGate,
)
from qsim.lang import format_circuit, parse_circuit


# ---------------------------------------------------------------------------
# Gate matrices


@pytest.mark.parametrize("kind", [k for k in GateKind])
def test_gate_matrices_unitary(kind):
    u = gate_matrix(kind)
    d = 4 if kind is GateKind.CNOT else 2
    assert u.shape == (d, d)
    assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-15)


def test_special_gate_entries():
    r = gate_matrix(GateKind.R)
    assert r[0, 0] == 1 and r[1, 1] == 1j
    s = gate_matrix(GateKind.S)
    assert s[1, 1] == pytest.approx(np.exp(1j * np.pi / 4))
    h = gate_matrix(GateKind.H)
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    # R is Clifford, S is not
    assert GateKind.R.is_clifford and not GateKind.S.is_clifford


def test_cnot_matrix_is_the_permutation():
    u = gate_matrix(GateKind.CNOT)
    want = np.zeros((4, 4))
    for c in (0, 1):
        for t in (0, 1):
            want[(c << 1) | (t ^ c), (c << 1) | t] = 1
    assert np.array_equal(u.real, want)


# ---------------------------------------------------------------------------
# Boolean functions


def test_boolean_function_round_trip():
    f = BooleanFunction.from_string("0110")
    assert f.arity == 2
    assert [f(x) for x in range(4)] == [0, 1, 1, 0]
    assert f.to_string() == "0110"


@pytest.mark.parametrize("table", ["", "011", "0" * 5])
def test_boolean_function_rejects_non_power_of_two(table):
    with pytest.raises(ValueError):
        BooleanFunction.from_string(table)


# ---------------------------------------------------------------------------
# Validation


def _f1(table):
    return BooleanFunction.from_string(table)


def test_validate_accepts_well_formed():
    c = Circuit(
        n_qubits=2,
        n_cbits=1,
        ops=(
            GateApp(GateKind.H, (0,)),
            GateApp(GateKind.CNOT, (0, 1)),
            Measure(0, PauliAxis.Z, 0),
            GateApp(GateKind.X, (1,), condition=0),
        ),
    )
    assert validate(c) == []


def test_validate_flags_duplicate_cnot_qubit():
    c = Circuit(2, 0, (GateApp(GateKind.CNOT, (1, 1)),))
    bad = validate(c)
    assert len(bad) == 1 and bad[0].kind == "duplicate_qubit" and bad[0].op_index == 0


def test_validate_flags_out_of_range():
    c = Circuit(2, 1, (GateApp(GateKind.H, (2,)), Measure(0, PauliAxis.Z, 3)))
    kinds = {v.kind for v in validate(c)}
    assert kinds == {"index_out_of_range"}


def test_validate_flags_condition_before_write():
    c = Circuit(2, 1, (GateApp(GateKind.X, (0,), condition=0),))
    bad = validate(c)
    assert [v.kind for v in bad] == ["undefined_condition_bit"]


def test_validate_flags_condition_written_later():
    c = Circuit(
        2, 1, (GateApp(GateKind.X, (0,), condition=0), Measure(0, PauliAxis.Z, 0))
    )
    assert [v.kind for v in validate(c)] == ["undefined_condition_bit"]


def test_validate_flags_oracle_reusing_qubits():
    c = Circuit(2, 0, (OracleApp(_f1("01"), (0,), 0),))
    assert [v.kind for v in validate(c)] == ["duplicate_qubit"]


def test_validate_flags_oracle_arity():
    c = Circuit(3, 0, (OracleApp(_f1("01"), (0, 1), 2),))
    assert [v.kind for v in validate(c)] == ["arity_mismatch"]


# ---------------------------------------------------------------------------
# Gottesman-Knill classification


def test_clifford_circuit_is_gk():
    rep = classify_gottesman_knill(gk_entangler())
    assert rep.is_gk and rep.first_offender is None


def test_conditioned_clifford_is_gk():
    c = Circuit(
        2, 1, (Measure(0, PauliAxis.Z, 0), GateApp(GateKind.X, (1,), condition=0))
    )
    assert classify_gottesman_knill(c).is_gk


def test_s_gate_breaks_gk():
    c = Circuit(1, 0, (GateApp(GateKind.H, (0,)), GateApp(GateKind.S, (0,))))
    rep = classify_gottesman_knill(c)
    assert not rep.is_gk and rep.first_offender == 1


def test_oracle_breaks_gk():
    rep = classify_gottesman_knill(deutsch(_f1("01")))
    assert not rep.is_gk and rep.first_offender == 4  # the oracle op


# ---------------------------------------------------------------------------
# Builders


def test_gk_entangler_shape():
    c = gk_entangler()
    assert c.n_qubits == 2 and c.n_cbits == 0
    assert [type(op) for op in c.ops] == [GateApp] * 4


def test_ghz_scales():
    c = ghz(5)
    assert c.n_qubits == 5
    assert sum(op.kind is GateKind.CNOT for op in c.ops) == 4


def test_deutsch_measures_one_bit():
    c = deutsch(_f1("10"))
    assert c.n_cbits == 1
    assert isinstance(c.ops[-1], Measure)
    assert validate(c) == []


# ---------------------------------------------------------------------------
# Text format


GOOD = """
# comment and blank lines are fine

qubits 3
cbits 2
h q0
CNOT q0 q1
oracle 0110 q0 q1 -> q2
measure q1 Z -> c0
cif c0 x q2
measure q2 X -> c1
"""


def test_parse_round_trips_through_format():
    c = parse_circuit(GOOD)
    text = format_circuit(c)
    assert parse_circuit(text) == c
    assert format_circuit(parse_circuit(text)) == text


@st.composite
def valid_circuits(draw):
    """Well-formed circuits of 1-5 qubits: every gate kind, some under a
    ``cif`` on a bit already measured, X/Y/Z measurements and oracles of
    1-3 inputs."""
    n = draw(st.integers(1, 5))
    n_cbits = draw(st.integers(0, 4))
    kinds = ["gate"] + ["measure"] * (n_cbits > 0) + ["oracle"] * (n >= 2)
    gates = [k for k in GateKind if k.arity <= n]
    written: list[int] = []
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(n)))
        if kind == "measure":
            dest = draw(st.integers(0, n_cbits - 1))
            ops.append(Measure(qubits[0], draw(st.sampled_from(PauliAxis)), dest))
            written.append(dest)
        elif kind == "oracle":
            k = draw(st.integers(1, min(n - 1, 3)))
            table = draw(st.lists(st.integers(0, 1), min_size=1 << k, max_size=1 << k))
            ops.append(OracleApp(BooleanFunction(k, tuple(table)), tuple(qubits[:k]), qubits[k]))
        else:
            gate = draw(st.sampled_from(gates))
            cond = draw(st.sampled_from(written)) if written and draw(st.booleans()) else None
            ops.append(GateApp(gate, tuple(qubits[: gate.arity]), cond))
    return Circuit(n, n_cbits, tuple(ops))


@settings(max_examples=200, deadline=None)
@given(circuit=valid_circuits())
def test_format_parse_round_trip(circuit):
    assert validate(circuit) == []
    text = format_circuit(circuit)
    assert parse_circuit(text) == circuit
    assert format_circuit(parse_circuit(text)) == text


def test_parse_is_case_insensitive():
    a = parse_circuit("qubits 1\nH Q0\n")
    b = parse_circuit("QUBITS 1\nh q0\n")
    assert a == b


def test_format_is_canonical():
    c = parse_circuit("qubits 2\ncbits 1\nH q0\ncnot q0 q1\nmeasure q0 z -> c0\n")
    assert format_circuit(c) == (
        "qubits 2\ncbits 1\nh q0\ncnot q0 q1\nmeasure q0 Z -> c0\n"
    )


def test_parse_oracle_table_orientation():
    c = parse_circuit("qubits 2\noracle 01 q0 -> q1\n")
    op = c.ops[0]
    assert isinstance(op, OracleApp)
    assert op.function.to_string() == "01"
    assert op.inputs == (0,) and op.output == 1


@pytest.mark.parametrize(
    "text,exc,line",
    [
        ("h q0\n", MalformedHeader, 1),
        ("qubits zero\n", MalformedHeader, 1),
        ("qubits 2\nfoo q0\n", UnknownGate, 2),
        ("qubits 2\ncnot q0\n", ArityMismatch, 2),
        ("qubits 2\ncnot q0 q0\n", ArityMismatch, 2),
        ("qubits 2\nh q7\n", IndexOutOfRange, 2),
        ("qubits 2\ncbits 1\nmeasure q0 Z -> c4\n", IndexOutOfRange, 3),
        ("qubits 2\ncbits 1\ncif c0 x q0\n", UndefinedConditionBit, 3),
        ("qubits 2\ncbits 1\nmeasure q0 Z -> c0\ncif c0 measure q1 Z -> c0\n", UnknownGate, 4),
        ("qubits 2\noracle 011 q0 -> q1\n", ParseError, 2),
        ("qubits 2\nmeasure q0 W -> c0\n", ParseError, 2),
        ("qubits 2\ncbits 0\ncbits 3\n", MalformedHeader, 3),
        ("qubits \u00b2\n", MalformedHeader, 1),
        ("qubits 2\ncbits \u00b2\n", MalformedHeader, 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, exc, line):
    with pytest.raises(exc) as err:
        parse_circuit(text)
    assert err.value.line == line


def test_parsed_circuit_validates_clean():
    assert validate(parse_circuit(GOOD)) == []


_RULE_ERRORS = {
    "index_out_of_range": IndexOutOfRange,
    "undefined_condition_bit": UndefinedConditionBit,
    "arity_mismatch": ArityMismatch,
    "duplicate_qubit": ArityMismatch,
}


@st.composite
def any_circuits(draw):
    """Small circuits that may break any rule: qubit and bit indices up to
    one past the end, CNOTs on one qubit twice, conditions on bits no
    earlier measure wrote, and oracles whose table arity differs from
    their inputs or whose output is also an input."""
    n = draw(st.integers(1, 4))
    n_cbits = draw(st.integers(0, 3))
    qubit, cbit = st.integers(0, n + 1), st.integers(0, n_cbits + 1)
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["gate", "measure", "oracle"]))
        if kind == "measure":
            ops.append(Measure(draw(qubit), draw(st.sampled_from(PauliAxis)), draw(cbit)))
        elif kind == "oracle":
            arity = draw(st.integers(1, 3))
            table = draw(st.lists(st.integers(0, 1), min_size=1 << arity, max_size=1 << arity))
            inputs = draw(st.lists(qubit, min_size=1, max_size=3))
            ops.append(OracleApp(BooleanFunction(arity, tuple(table)), tuple(inputs), draw(qubit)))
        else:
            gate = draw(st.sampled_from(GateKind))
            targets = tuple(draw(qubit) for _ in range(gate.arity))
            ops.append(GateApp(gate, targets, draw(st.none() | cbit)))
    return Circuit(n, n_cbits, tuple(ops))


@settings(max_examples=300, deadline=None)
@given(circuit=any_circuits())
def test_parser_reports_what_validate_finds(circuit):
    """The parser raises validate's first violation, mapped to its error
    class, at the line of the op it names; a clean circuit round-trips."""
    bad = validate(circuit)
    text = format_circuit(circuit)
    if not bad:
        assert parse_circuit(text) == circuit
        return
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert type(err.value) is _RULE_ERRORS[bad[0].kind]
    header_lines = 2 if circuit.n_cbits else 1
    assert err.value.line == header_lines + bad[0].op_index + 1
