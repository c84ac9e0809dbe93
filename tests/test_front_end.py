"""The columnar front end against the per-line parser and per-op rules.

``parse_circuit`` reads a text in one pass into an op table, and
``validate`` judges that table column by column.  Both must answer as
the line parser and the per-op ``validate`` (``front_end_reference``)
answer: the same circuit, or the same error class, line and message;
the same violations, in the same order.  A parsed Clifford circuit must
run on the tableau without one op object being built.
"""

import random
import sys

import pytest
from front_end_reference import line_parse_reference, validate_reference
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_circuit_ir import any_circuits, valid_circuits

from qsim.bench import dispatch_run
from qsim.circuit import (
    BooleanFunction,
    Circuit,
    GateApp,
    GateKind,
    Measure,
    OracleApp,
    PauliAxis,
    check_op,
    validate,
)
from qsim.lang import format_circuit, parse_circuit
from qsim.statevector import evolve

# whitespace str.split splits on, inside a line
_SPACES = [" ", "  ", "\t", " \t", "\x1f", "\xa0", "\u2003", "\u3000"]
# line breaks str.splitlines splits on
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# decimal digits of other scripts (str.isdecimal), which int() reads
_DIGITS = ["".join(chr(z + d) for d in range(10)) for z in (0x660, 0x966, 0xFF10)]
# the grammar's own words, a token put where it does not belong
_WORDS = ["i", "x", "y", "z", "r", "h", "s", "cnot", "cif", "measure", "oracle", "->", "q1",
          "c0", "c9", "q", "01", "0110", "qubits", "cbits", "#", "X", "-", "q1->"]


def _outcome(parse, text):
    try:
        circuit = parse(text)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), getattr(exc, "line", None), str(exc)
    return circuit.n_qubits, circuit.n_cbits, circuit.ops


def _mutate_index(rnd, token):
    """``q7`` as ``q007`` or with another script's digits, now and then."""
    if len(token) < 2 or token[0] not in "qc" or not token[1:].isdigit():
        return token
    digits = token[1:]
    if rnd.random() < 0.2:
        digits = "0" * rnd.randint(1, 3) + digits
    if rnd.random() < 0.2:
        script = rnd.choice(_DIGITS)
        digits = "".join(script[int(d)] for d in digits)
    return token[0] + digits


def _mutate_case(rnd, token):
    mode = rnd.random()
    if mode < 0.6:
        return token
    if mode < 0.8:
        return token.upper()
    return "".join(c.upper() if rnd.random() < 0.5 else c.lower() for c in token)


@st.composite
def circuit_texts(draw):
    """Canonical circuit text, rewritten: case, whitespace runs of any
    Unicode space, every kind of line break, comments and blank lines,
    zero-padded indices and other scripts' digits, and sometimes one
    token after the ``qubits`` line replaced by another word of the
    grammar or by arbitrary text."""
    circuit = draw(valid_circuits() | any_circuits())
    rnd = draw(st.randoms(use_true_random=True))
    lines = [line.split(" ") for line in format_circuit(circuit).splitlines()]
    if len(lines) > 1 and draw(st.integers(0, 9)) < 3:
        tokens = [(i, j) for i, line in enumerate(lines[1:], 1) for j in range(len(line))]
        i, j = draw(st.sampled_from(tokens))
        lines[i][j] = draw(st.sampled_from(_WORDS) | st.text(min_size=1, max_size=6))
    out = []
    for line in lines:
        while rnd.random() < 0.15:
            out.append(rnd.choice(["", rnd.choice(_SPACES), "# a comment", " #qubits 3"]))
        tokens = [_mutate_case(rnd, _mutate_index(rnd, t)) for t in line]
        text = "".join(t + rnd.choice(_SPACES if rnd.random() < 0.3 else [" "]) for t in tokens)
        text = text[:-1] if rnd.random() < 0.7 else text
        if rnd.random() < 0.2:
            text = rnd.choice(_SPACES) + text
        if rnd.random() < 0.15:
            text += rnd.choice(["#", "\xa0# cif c9 h q9", "#\u2003note"])
        out.append(text)
    breaks = [rnd.choice(_BREAKS) if rnd.random() < 0.3 else "\n" for _ in out]
    text = "".join(line + b for line, b in zip(out, breaks))
    return text if rnd.random() < 0.8 else text.rstrip("\n")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
@example(text="qubits 2\r\ncbits 1\r\nH Q0\r\nmeasure q0 z -> c0\r\n")
@example(text="qubits \uff12\ncbits \u0661\nh q\u0660\nmeasure q001 X -> c00\n")
@example(text="\n# header next\n  qubits 2 # two\n\n\tcbits 1\n# body\nh q0#c\n\n")
@example(text="qubits 2\u2028h q0\x85cnot q0\x0bq1\u3000\x1c")
@example(text="qubits 2\nh q0 q1\n")
@example(text="qubits 2\ncbits 1\nmeasure q0 r -> c0\n")
@example(text="qubits 2\ncif c0 measure q0 Z -> c0\n")
@example(text="qubits 2\nh q0\ncbits 1\n")
@example(text="qubits 2\ncbits 1\nqubits 3\n")
@example(text="qubits 0\n")
@example(text="qubits 2\noracle 011 q0 -> q1\n")
@example(text="qubits 3\noracle 01 q0 -> q1 -> q2\n")
@example(text="qubits 2\n\u0130 q0\n")
@example(text="qubits 2\nh\u03a3 q0\n")
@example(text="# only comments\n\n")
@example(text="")
@example(text="qubits 99999999999999999999\nh q99999999999999999998\nh q5\n")
@example(text="qubits 2\ncbits 1\nh q99999999999999999999\ncif c0 x q0\n")
@given(text=circuit_texts())
def test_parser_matches_line_parser(text):
    assert _outcome(parse_circuit, text) == _outcome(line_parse_reference, text)


_F2 = BooleanFunction(2, (0, 1, 1, 0))
_MALFORMED = [
    Circuit(3, 1, (GateApp(GateKind.H, (0, 1, 7)),)),  # three targets, one out of range
    Circuit(2, 0, (GateApp(GateKind.X, ()),)),  # no target
    Circuit(2, 0, (GateApp(GateKind.CNOT, (5,)),)),
    Circuit(4, 0, (OracleApp(_F2, (1, 1), 1),)),  # repeated inputs, output among them
    Circuit(4, 0, (OracleApp(_F2, (0, 9, 9), 9),)),
    Circuit(2, 1, (GateApp(GateKind.X, (-1,), -1), GateApp(GateKind.Z, (0,), -2))),
    Circuit(2, 1, (Measure(0, PauliAxis.Z, -1), GateApp(GateKind.X, (0,), 0))),
    Circuit(2, 1, (GateApp(GateKind.H, (2**70,)), GateApp(GateKind.X, (0,), 2**70))),
    Circuit(2**70, 2, (GateApp(GateKind.H, (2**69,)), Measure(2**69, PauliAxis.Y, 1),
                       GateApp(GateKind.X, (0,), 1))),
    Circuit(0, -1, ()),
    Circuit(2, 2, [GateApp(GateKind.CNOT, [1, 1]), Measure(1, PauliAxis.X, 1)]),
    Circuit(1, 0, ("h q0",)),
]


@pytest.mark.parametrize("circuit", _MALFORMED)
def test_validate_matches_per_op_rules_on_malformed_ops(circuit):
    assert validate(circuit) == validate_reference(circuit)


@settings(max_examples=400, deadline=None)
@given(circuit=any_circuits() | valid_circuits())
def test_validate_matches_per_op_rules(circuit):
    assert validate(circuit) == validate_reference(circuit)


_FEEDBACK = """qubits 5
cbits 5
h q0
cnot q0 q1
r q1
measure q1 X -> c0
cif c0 z q2
cif c0 y q3
cif c0 x q4
measure q0 Z -> c1
cif c1 h q2
cif c1 cnot q2 q4
measure q2 Y -> c2
measure q3 Z -> c3
measure q4 X -> c4
measure q1 X -> c3
"""


def test_tableau_run_of_parsed_text_builds_no_op(monkeypatch):
    # cif Paulis, conditioned H and CNOT (which split the shots) and X/Y/Z
    # measurements: parse and run read the op table alone
    want = dispatch_run(line_parse_reference(_FEEDBACK), 300, 11)
    made = []
    for cls in (GateApp, Measure, OracleApp):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    got = dispatch_run(parse_circuit(_FEEDBACK), 300, 11)
    assert made == []
    assert got.backend == "stab" and got.counts == want.counts
    # the counter sees the ops the public view builds
    assert len(parse_circuit(_FEEDBACK).ops) == len(made) == 14


def test_parsed_ops_are_built_once_and_compare_as_api_ops():
    text = format_circuit(line_parse_reference(_FEEDBACK))
    parsed, api = parse_circuit(text), line_parse_reference(text)
    assert parsed.ops is parsed.ops
    assert parsed == api and hash(parsed) == hash(api) and repr(parsed) == repr(api)
    rnd = random.Random(5)
    shuffled = Circuit(api.n_qubits, api.n_cbits, tuple(rnd.sample(api.ops, len(api.ops))))
    assert shuffled != parsed


def _first_rule_broken(op, n):
    """The message :func:`validate_reference` gives first for ``op`` alone
    on ``n`` qubits, its condition dropped, or None."""
    if isinstance(op, GateApp):
        op = GateApp(op.kind, op.targets)
    bad = validate_reference(Circuit(n, 0, (op,)))
    return bad[0].message if bad else None


def _check_op_message(op, n):
    try:
        check_op(op, n)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("op, n", [(op, c.n_qubits) for c in _MALFORMED for op in c.ops]
                         + [(Measure(0, PauliAxis.X, 0), 1), (GateApp(GateKind.H, (0,)), 0)])
def test_check_op_judges_one_op_as_validate_does_on_malformed_ops(op, n):
    assert _check_op_message(op, n) == _first_rule_broken(op, n)


@settings(max_examples=300, deadline=None)
@given(circuit=any_circuits() | valid_circuits())
def test_check_op_judges_one_op_as_validate_does(circuit):
    for op in circuit.ops:
        assert _check_op_message(op, circuit.n_qubits) == _first_rule_broken(op, circuit.n_qubits)


def test_evolve_reads_the_verdict_kept_on_the_circuit(monkeypatch):
    # the parser judges the circuit once, and evolve reads that verdict
    import qsim.circuit

    original, calls = qsim.circuit.validate, []

    def counted(circuit):
        calls.append(circuit)
        return original(circuit)

    for name, module in list(sys.modules.items()):
        if name == "qsim" or name.startswith("qsim."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    circuit = parse_circuit("qubits 2\nh q0\ncnot q0 q1\nr q1\n")
    evolve(circuit)
    evolve(circuit)
    assert len(calls) == 1
