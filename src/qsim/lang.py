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
they are listed.  Lines end where ``str.splitlines`` ends them, tokens
are separated by any Unicode whitespace, and indices are Unicode decimal
digits.  Diagnostics carry the 1-based line number.

The parser reads the whole text in one pass: one compiled pattern checks
the header and another the whole body, and the circuit's op table
(:class:`qsim.circuit.OpTable`) is read off the body's tokens, each
mapped to an int code by one dict.  It builds no op object: the
circuit's ``ops`` are built from the table when first read.  A text the
patterns reject is read again line by line only to name its first
syntax error, with the same grammar spelled out token by token.

The parser checks syntax only: the header, each statement's shape, the
``q<i>``/``c<k>`` tokens, truth tables (0s and 1s, of a power-of-two
length) and measurement axes.  The circuit rules (index ranges, a
condition bit written by an earlier measure, distinct qubits, oracle
arity) live in :mod:`qsim.circuit` alone, behind its ``validate``.  The
parser builds the circuit, validates it once (the verdict stays on the
circuit, so a backend's ``run`` does not evaluate the rules again), and
raises the first violation at its op's line, by kind:

* ``index_out_of_range`` -> :class:`IndexOutOfRange`,
* ``undefined_condition_bit`` -> :class:`UndefinedConditionBit`,
* ``arity_mismatch`` and ``duplicate_qubit`` -> :class:`ArityMismatch`.

A file with a syntax error and a rule violation reports the syntax
error, wherever the two stand.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NoReturn

import numpy as np

from .circuit import (
    AXES,
    GATE_KINDS,
    MEASURE,
    ORACLE,
    BooleanFunction,
    Circuit,
    GateApp,
    GateKind,
    Measure,
    OpTable,
    OracleApp,
    PauliAxis,
    index_column,
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

# Unicode whitespace but "\n" and " ": the other line breaks, as
# str.splitlines reads them, and the other spaces, which str.split reads as
# " " does.  The parser rewrites both before the patterns read the text.
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_SPACES = "\t\x1f\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u202f\u205f\u3000"
_TO_SPACE = str.maketrans(dict.fromkeys(_SPACES, " "))

# The grammar over lowercased text whose only line break is "\n" and only
# space " ".  \d is str.isdecimal, as the counts and indices read them.
_END = r" *(?:#.*)?(?:\n|\Z)"  # a line's end: spaces, a comment, the break
_BLANKS = r"(?: *(?:#.*)?\n)*"
_HEADER = re.compile(rf"{_BLANKS} *qubits +(\d+){_END}(?:{_BLANKS} *cbits +(\d+){_END})?")
_STATEMENT = (r"(?:cif +c\d+ +(?=(?:[ixyzrhs]|cnot) ))?"  # a condition, of a gate only
              r"(?:[ixyzrhs] +q\d+|cnot +q\d+ +q\d+|measure +q\d+ +[xyz] +-> +c\d+"
              r"|oracle +[01]+(?: +q\d+)+ +-> +q\d+)")
_LINE = rf" *(?:{_STATEMENT})? *(?:#.*)?"
_BODY = re.compile(rf"(?:{_LINE}\n)*{_LINE}")
_COMMENT = re.compile(r"#.*")

# A body token's code: its class in the low four bits, an index token's
# value above them.  A head's class is its op code (a gate's place in
# GateKind, ORACLE, MEASURE); an axis token reads as the gate of its name.
_Q, _C, _CIF, _ARROW, _TABLE = range(MEASURE + 1, MEASURE + 6)
_WORDS = {k.value: i for i, k in enumerate(GATE_KINDS)}
_WORDS.update({"oracle": ORACLE, "measure": MEASURE, "cif": _CIF, "->": _ARROW})
_AXIS_OF = np.full(16, -1)  # an axis token's class to its axis code
_AXIS_OF[[_WORDS[a.value.lower()] for a in AXES]] = range(len(AXES))


class _Codes(dict):
    """Body tokens to codes: the words and a call's small indices up front,
    the rest (leading zeros, other decimal digits, large indices, truth
    tables) as they come."""

    def __missing__(self, token: str) -> int:
        if token[0] in "qc":
            return int(token[1:]) << 4 | (_Q if token[0] == "q" else _C)
        return _TABLE


def parse_circuit(text: str) -> Circuit:
    if any(c in text for c in _BREAKS):
        text = "\n".join(text.splitlines())
    low = text.lower()
    if any(c in low for c in _SPACES):
        low = low.translate(_TO_SPACE)
    header = _HEADER.match(low)
    if header is None or int(header[1]) < 1:
        _reject(text)
    n_qubits, n_cbits = int(header[1]), int(header[2] or 0)
    body = low[header.end():]
    if not _BODY.fullmatch(body):
        _reject(text)

    # Every line holds one statement at most, so the tokens are the
    # statements in order: a statement starts at a head or "cif" that is
    # not an axis (two after "measure") or a condition's gate (two after
    # "cif"), and its "q" tokens, in order, are the op's qubits.
    tokens = (_COMMENT.sub("", body) if "#" in body else body).split()
    size = min(max(n_qubits, n_cbits), len(tokens))
    codes = _Codes(_WORDS)
    codes.update(zip(map("q{}".format, range(size)), range(_Q, (size << 4) + _Q, 16)))
    codes.update(zip(map("c{}".format, range(size)), range(_C, (size << 4) + _C, 16)))
    code = index_column(list(map(codes.__getitem__, tokens)))
    kind_of, value = (code & 15).astype(np.int64), code >> 4
    before = np.concatenate(([_ARROW, _ARROW], kind_of))[:-2]
    starts = np.flatnonzero(((kind_of < _Q) | (kind_of == _CIF))
                            & (before != MEASURE) & (before != _CIF))
    conditioned = kind_of[starts] == _CIF
    kind = kind_of[starts + 2 * conditioned]
    is_q = kind_of == _Q
    start = np.append(np.cumsum(np.concatenate(([0], is_q)))[starts], is_q.sum())
    cond = np.full(len(starts), -1, dtype=value.dtype)
    cond[conditioned] = value[starts[conditioned] + 1]
    meas = np.flatnonzero(kind == MEASURE)
    axis = np.full(len(starts), -1, dtype=np.int64)
    axis[meas] = _AXIS_OF[kind_of[starts[meas] + 2]]
    dest = np.full(len(starts), -1, dtype=value.dtype)
    dest[meas] = value[starts[meas] + 4]
    functions = {}
    for i in np.flatnonzero(kind == ORACLE).tolist():
        try:
            functions[i] = BooleanFunction.from_string(tokens[starts[i] + 1])
        except ValueError:
            _reject(text)
    table = OpTable(kind.astype(np.uint8), start, value[is_q], cond, axis, dest, functions)

    circuit = Circuit.from_table(n_qubits, n_cbits, table)
    bad = violations(circuit)
    if bad:
        line = low.count("\n", 0, header.end()) + _statement_line(body, bad[0].op_index)
        raise _RULE_ERRORS[bad[0].kind](line, bad[0].message)
    return circuit


def _statement_line(body: str, op: int) -> int:
    """The line of ``body``, counted from 1, that holds statement ``op``."""
    lines = (i for i, line in enumerate(body.split("\n"), 1) if line.split("#", 1)[0].strip())
    return next(islice(lines, op, None))


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


def _reject(text: str) -> NoReturn:
    """Raise the first syntax error of a text the patterns rejected, found
    line by line: the same grammar, token by token, naming what is wrong."""
    n_qubits: int | None = None
    n_cbits: int | None = None
    statements = False
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
            if statements or n_cbits is not None:
                raise MalformedHeader(lineno, "cbits must appear once, directly after qubits")
            n_cbits = _count(tokens, lineno, "cbits <m>")
            continue

        if head == "cif":
            if len(tokens) < 3:
                raise ArityMismatch(lineno, "usage: cif c<k> <gate> ...")
            _index(tokens[1], "c", lineno)
            tokens = tokens[2:]
            head = tokens[0]
            if head not in _ONE_QUBIT_GATES and head != "cnot":
                raise UnknownGate(lineno, f"cif must be followed by a gate, got {head!r}")

        if head in _ONE_QUBIT_GATES:
            if len(tokens) != 2:
                raise ArityMismatch(lineno, f"usage: {head} q<i>")
            _index(tokens[1], "q", lineno)
        elif head == "cnot":
            if len(tokens) != 3:
                raise ArityMismatch(lineno, "usage: cnot q<control> q<target>")
            _index(tokens[1], "q", lineno)
            _index(tokens[2], "q", lineno)
        elif head == "oracle":
            arrow = tokens.index("->") if "->" in tokens else -1
            if arrow < 3 or arrow != len(tokens) - 2:
                raise ArityMismatch(lineno, "usage: oracle <tt> q<i1> .. -> q<out>")
            if not _TT_RE.fullmatch(tokens[1]):
                raise ArityMismatch(lineno, "truth table must be a string of 0s and 1s")
            try:
                BooleanFunction.from_string(tokens[1])
            except ValueError as exc:
                raise ArityMismatch(lineno, str(exc)) from None
            for t in tokens[2:arrow]:
                _index(t, "q", lineno)
            _index(tokens[arrow + 1], "q", lineno)
        elif head == "measure":
            if len(tokens) != 5 or tokens[3] != "->":
                raise ArityMismatch(lineno, "usage: measure q<i> X|Y|Z -> c<k>")
            _index(tokens[1], "q", lineno)
            if tokens[2].upper() not in _AXES:
                raise UnknownGate(lineno, f"unknown measurement axis {tokens[2]!r}")
            _index(tokens[4], "c", lineno)
        else:
            raise UnknownGate(lineno, f"unknown operation {head!r}")
        statements = True

    if n_qubits is None:
        raise MalformedHeader(max(last_line, 1), "missing 'qubits <n>' header")
    raise AssertionError("the line patterns rejected a text the line checks accept")


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
