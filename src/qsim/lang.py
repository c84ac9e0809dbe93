"""Line-oriented text format for circuits.

Grammar (keywords case-insensitive, ``#`` starts a comment, blank lines
ignored)::

    qubits <n>                      # required first line
    cbits <m>                       # optional, immediately after qubits
    x|y|z|r|h|s q<i>                # one-qubit gates
    cnot q<i> q<j>                  # controlled NOT, control first
    cif c<k> <gate line>            # apply the gate only when bit k is 1
    oracle <tt> q<i1> .. q<in> -> q<out>
    measure q<i> X|Y|Z -> c<k>

``<tt>`` is the oracle truth table as a bit string of length 2^n; the
table index is the big-endian reading of the input qubits in the order
they are listed.  Diagnostics carry the 1-based line number.

The parser checks syntax only: the header, each statement's shape, the
``q<i>``/``c<k>`` tokens, truth tables (0s and 1s, of a power-of-two
length) and measurement axes.  The circuit rules (index ranges, a
condition bit written by an earlier measure, distinct qubits, oracle
arity) live in :func:`qsim.circuit.validate` alone.  The parser builds
the circuit, validates it once (the verdict stays on the circuit, so a
backend's ``run`` does not evaluate the rules again), and raises the
first violation at its op's line, by kind:

* ``index_out_of_range`` -> :class:`IndexOutOfRange`,
* ``undefined_condition_bit`` -> :class:`UndefinedConditionBit`,
* ``arity_mismatch`` and ``duplicate_qubit`` -> :class:`ArityMismatch`.

A file with a syntax error and a rule violation reports the syntax
error, wherever the two stand.
"""

from __future__ import annotations

import re

from .circuit import (
    BooleanFunction,
    Circuit,
    CircuitOp,
    GateApp,
    GateKind,
    Measure,
    OracleApp,
    PauliAxis,
    violations,
)
from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    MalformedHeader,
    UndefinedConditionBit,
    UnknownGate,
)

_ONE_QUBIT_GATES = {k.value: k for k in GateKind if k.arity == 1}
_AXES = {a.value: a for a in PauliAxis}
_TT_RE = re.compile(r"[01]+")

_RULE_ERRORS = {
    "index_out_of_range": IndexOutOfRange,
    "undefined_condition_bit": UndefinedConditionBit,
    "arity_mismatch": ArityMismatch,
    "duplicate_qubit": ArityMismatch,
}


def _index(token: str, letter: str, line: int) -> int:
    """The index of a ``q<i>`` (``letter`` "q") or ``c<k>`` token."""
    if token[:1] != letter or not token[1:].isdecimal():
        what = "a qubit like q0" if letter == "q" else "a classical bit like c0"
        raise ArityMismatch(line, f"expected {what}, got {token!r}")
    return int(token[1:])


def _count(tokens: list[str], line: int, usage: str) -> int:
    # isdecimal, not isdigit: int() rejects superscript digits
    if len(tokens) != 2 or not tokens[1].isdecimal():
        raise MalformedHeader(line, f"usage: {usage}")
    return int(tokens[1])


def parse_circuit(text: str) -> Circuit:
    n_qubits: int | None = None
    n_cbits: int | None = None
    ops: list[CircuitOp] = []
    lines: list[int] = []  # the source line of each op
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        tokens = raw.split("#", 1)[0].lower().split()
        if not tokens:
            continue
        head = tokens[0]

        if n_qubits is None:
            if head != "qubits":
                raise MalformedHeader(lineno, f"first statement must be 'qubits <n>', got {head!r}")
            n_qubits = _count(tokens, lineno, "qubits <n>")
            if n_qubits < 1:
                raise MalformedHeader(lineno, "circuit needs at least one qubit")
            continue

        if head == "qubits":
            raise MalformedHeader(lineno, "duplicate qubits declaration")
        if head == "cbits":
            if ops or n_cbits is not None:
                raise MalformedHeader(lineno, "cbits must appear once, directly after qubits")
            n_cbits = _count(tokens, lineno, "cbits <m>")
            continue

        condition: int | None = None
        if head == "cif":
            if len(tokens) < 3:
                raise ArityMismatch(lineno, "usage: cif c<k> <gate> ...")
            condition = _index(tokens[1], "c", lineno)
            tokens = tokens[2:]
            head = tokens[0]
            if head not in _ONE_QUBIT_GATES and head != "cnot":
                raise UnknownGate(lineno, f"cif must be followed by a gate, got {head!r}")

        if head in _ONE_QUBIT_GATES:
            if len(tokens) != 2:
                raise ArityMismatch(lineno, f"usage: {head} q<i>")
            ops.append(GateApp(_ONE_QUBIT_GATES[head], (_index(tokens[1], "q", lineno),), condition))
        elif head == "cnot":
            if len(tokens) != 3:
                raise ArityMismatch(lineno, "usage: cnot q<control> q<target>")
            targets = (_index(tokens[1], "q", lineno), _index(tokens[2], "q", lineno))
            ops.append(GateApp(GateKind.CNOT, targets, condition))
        elif head == "oracle":
            arrow = tokens.index("->") if "->" in tokens else -1
            if arrow < 3 or arrow != len(tokens) - 2:
                raise ArityMismatch(lineno, "usage: oracle <tt> q<i1> .. -> q<out>")
            if not _TT_RE.fullmatch(tokens[1]):
                raise ArityMismatch(lineno, "truth table must be a string of 0s and 1s")
            try:
                function = BooleanFunction.from_string(tokens[1])
            except ValueError as exc:
                raise ArityMismatch(lineno, str(exc)) from None
            inputs = tuple(_index(t, "q", lineno) for t in tokens[2:arrow])
            ops.append(OracleApp(function, inputs, _index(tokens[arrow + 1], "q", lineno)))
        elif head == "measure":
            if len(tokens) != 5 or tokens[3] != "->":
                raise ArityMismatch(lineno, "usage: measure q<i> X|Y|Z -> c<k>")
            q = _index(tokens[1], "q", lineno)
            axis = _AXES.get(tokens[2].upper())
            if axis is None:
                raise UnknownGate(lineno, f"unknown measurement axis {tokens[2]!r}")
            ops.append(Measure(q, axis, _index(tokens[4], "c", lineno)))
        else:
            raise UnknownGate(lineno, f"unknown operation {head!r}")
        lines.append(lineno)

    if n_qubits is None:
        raise MalformedHeader(max(last_line, 1), "missing 'qubits <n>' header")
    circuit = Circuit(n_qubits, n_cbits or 0, tuple(ops))
    bad = violations(circuit, keep=True)  # built from tuples throughout
    if bad:
        raise _RULE_ERRORS[bad[0].kind](lines[bad[0].op_index], bad[0].message)
    return circuit


def format_circuit(circuit: Circuit) -> str:
    """Canonical text for a circuit; parse_circuit inverts it exactly."""
    lines = [f"qubits {circuit.n_qubits}"]
    if circuit.n_cbits:
        lines.append(f"cbits {circuit.n_cbits}")
    for op in circuit.ops:
        if isinstance(op, GateApp):
            prefix = f"cif c{op.condition} " if op.condition is not None else ""
            lines.append(prefix + op.kind.value + "".join(f" q{t}" for t in op.targets))
        elif isinstance(op, OracleApp):
            qs = " ".join(f"q{t}" for t in op.inputs)
            lines.append(f"oracle {op.function.to_string()} {qs} -> q{op.output}")
        elif isinstance(op, Measure):
            lines.append(f"measure q{op.qubit} {op.axis.value} -> c{op.dest}")
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot format {op!r}")
    return "\n".join(lines) + "\n"
