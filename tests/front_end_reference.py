"""The circuit front end as it was before the op table: the per-line
parser and the per-op ``validate``, kept as references for the
differential tests of ``test_front_end.py``.

``line_parse_reference`` is the line parser verbatim, but for one line:
it judges the circuit with ``validate_reference`` where it called
``violations``.  ``validate_reference`` is the per-op ``validate``
verbatim.
"""

from __future__ import annotations

import re

from qsim.circuit import (
    BooleanFunction,
    Circuit,
    CircuitOp,
    GateApp,
    GateKind,
    Measure,
    OracleApp,
    PauliAxis,
    Violation,
)
from qsim.errors import (
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


def line_parse_reference(text: str) -> Circuit:
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
    bad = validate_reference(circuit)
    if bad:
        raise _RULE_ERRORS[bad[0].kind](lines[bad[0].op_index], bad[0].message)
    return circuit



def validate_reference(circuit: Circuit) -> list[Violation]:
    """Check every op invariant; an empty list means the circuit is well formed.

    These are the circuit rules, held here alone (the text parser reports
    their violations at the op's line).  All indices must be in range; a
    condition must name a classical bit already written by an earlier
    ``Measure``; a gate's targets must match its arity and be distinct;
    an oracle's inputs must match its function's arity, be distinct and
    not include the output qubit.  Each op is type-tested once and
    indices are tested by ``range`` membership, since every run validates
    its circuit.
    """
    out: list[Violation] = []
    n, m = circuit.n_qubits, circuit.n_cbits
    if n < 1:
        out.append(Violation(-1, "bad_counts", "circuit needs at least one qubit"))
    if m < 0:
        out.append(Violation(-1, "bad_counts", "negative classical bit count"))
    qubits, cbits = range(n), range(m)
    written: set[int] = set()
    for i, op in enumerate(circuit.ops):
        if isinstance(op, GateApp):
            kind, targets = op.kind, op.targets
            if len(targets) != kind.arity:
                out.append(Violation(i, "arity_mismatch",
                                     f"{kind.value} takes {kind.arity} qubit(s), got {len(targets)}"))
            elif len(targets) == 2 and targets[0] == targets[1]:
                out.append(Violation(i, "duplicate_qubit", f"{kind.value} needs two distinct qubits"))
            for q in targets:
                if q not in qubits:
                    out.append(_qubit_out_of_range(i, q, n))
                    break
            c = op.condition
            if c is not None:
                if c not in cbits:
                    out.append(_cbit_out_of_range(i, c, m))
                elif c not in written:
                    out.append(Violation(i, "undefined_condition_bit",
                                         f"condition bit c{c} is not written by any earlier measure"))
        elif isinstance(op, Measure):
            if op.qubit not in qubits:
                out.append(_qubit_out_of_range(i, op.qubit, n))
            if op.dest not in cbits:
                out.append(_cbit_out_of_range(i, op.dest, m))
            else:
                written.add(op.dest)
        elif isinstance(op, OracleApp):
            inputs, output, arity = op.inputs, op.output, op.function.arity
            if len(inputs) != arity:
                out.append(Violation(i, "arity_mismatch",
                                     f"truth table has {1 << arity} entries but {len(inputs)} "
                                     f"input(s) need {1 << len(inputs)}"))
            if len(set(inputs)) != len(inputs):
                out.append(Violation(i, "duplicate_qubit", "oracle input qubits must be distinct"))
            if output in inputs:
                out.append(Violation(i, "duplicate_qubit", f"oracle output q{output} is also an input"))
            for q in (*inputs, output):
                if q not in qubits:
                    out.append(_qubit_out_of_range(i, q, n))
                    break
        else:  # pragma: no cover - defensive
            out.append(Violation(i, "unknown_op", f"unrecognized op {op!r}"))
    return out



def _qubit_out_of_range(i: int, q: int, n: int) -> Violation:
    return Violation(i, "index_out_of_range", f"qubit q{q} out of range (circuit has {n})")


def _cbit_out_of_range(i: int, c: int, m: int) -> Violation:
    return Violation(i, "index_out_of_range", f"classical bit c{c} out of range (circuit has {m})")
