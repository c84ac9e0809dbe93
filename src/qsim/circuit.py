"""Circuit intermediate representation.

A circuit is an immutable value: a qubit count, a classical-bit count,
and a sequence of ops.  Three op kinds exist:

* ``GateApp`` — one of the eight named gates, optionally conditioned on
  a classical bit,
* ``OracleApp`` — a reversible XOR-oracle for an arbitrary boolean
  function, ``|x>|y> -> |x>|y XOR f(x)>``,
* ``Measure`` — a single-qubit Pauli-basis measurement writing one
  classical bit.

Beside its ops, a circuit has an op table (:class:`OpTable`): the same
ops as int columns over a flat target array.  Validation, the
Gottesman-Knill classification and both backends' runs read the table, and
the text parser builds the table alone; ``ops`` is the public view, built
from the table when first read.  The circuit rules are written once, in
``_judge``: :func:`validate` judges the ops its screen picks, :func:`check_op` one op.

Conventions fixed here and relied on everywhere else: qubit 0 is the
leftmost tensor factor, so the basis index of a computational state is
the big-endian reading of the bit string ``q0 q1 ... q_{n-1}``.
Classical bits record ``0`` for the +1 measurement outcome and ``1``
for the -1 outcome.

Gate naming note: ``R`` is the phase gate ``diag(1, i)`` and ``S`` is
the finer phase gate ``diag(1, e^{i pi/4})``.  ``R`` is a Clifford
gate; ``S`` is the one gate in the set that is not, and adding it to
the Clifford gates yields a universal set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np


class GateKind(Enum):
    I = "i"
    X = "x"
    Y = "y"
    Z = "z"
    R = "r"
    H = "h"
    S = "s"
    CNOT = "cnot"

    # Members are singletons, so identity hashing is equality hashing, and
    # a dict keyed by kind (``_CODES``) looks one up without Enum.__hash__.
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return 2 if self is GateKind.CNOT else 1

    @property
    def is_clifford(self) -> bool:
        return self is not GateKind.S


class PauliAxis(Enum):
    X = "X"
    Y = "Y"
    Z = "Z"


_SQ2 = 1.0 / math.sqrt(2.0)

# Unitaries in the computational basis.  The two-qubit CNOT matrix is
# ordered |control target>: index 2*c + t.  Kernel code never touches
# these (it uses index arithmetic); they exist for unit tests and for
# building the measurement observables.
_GATE_MATRIX: dict[GateKind, np.ndarray] = {
    GateKind.I: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.R: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    GateKind.CNOT: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


def gate_matrix(kind: GateKind) -> np.ndarray:
    """A fresh copy of the gate's unitary matrix."""
    return _GATE_MATRIX[kind].copy()


@dataclass(frozen=True)
class BooleanFunction:
    """A function {0,1}^arity -> {0,1} given as a truth table.

    ``table[x]`` is the value at input ``x``, where ``x`` is the
    big-endian reading of the input bits (first input bit is the most
    significant).
    """

    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("boolean function needs at least one input")
        if len(self.table) != 1 << self.arity:
            raise ValueError(
                f"truth table has {len(self.table)} entries, expected {1 << self.arity}"
            )
        if any(v not in (0, 1) for v in self.table):
            raise ValueError("truth table entries must be 0 or 1")

    @classmethod
    def from_string(cls, bits: str) -> "BooleanFunction":
        n = len(bits)
        if n < 2 or n & (n - 1):
            raise ValueError(f"truth table length {n} is not a power of two >= 2")
        return cls(n.bit_length() - 1, tuple(int(c) for c in bits))

    def __call__(self, x: int) -> int:
        return self.table[x]

    def to_string(self) -> str:
        return "".join(str(v) for v in self.table)


@dataclass(frozen=True)
class GateApp:
    kind: GateKind
    targets: tuple[int, ...]
    condition: int | None = None


@dataclass(frozen=True)
class OracleApp:
    function: BooleanFunction
    inputs: tuple[int, ...]
    output: int


@dataclass(frozen=True)
class Measure:
    qubit: int
    axis: PauliAxis
    dest: int


CircuitOp = Union[GateApp, OracleApp, Measure]


# ---------------------------------------------------------------------------
# The op table

# An op's code in a circuit's op table: a gate's is its kind's place in
# GateKind, then come oracles, measurements and, from the API only, any
# other object.  A measurement axis's code is its place in PauliAxis.
GATE_KINDS = tuple(GateKind)
ORACLE, MEASURE, _OTHER = range(len(GATE_KINDS), len(GATE_KINDS) + 3)
AXES = tuple(PauliAxis)
_CODES = {k: i for i, k in enumerate(GATE_KINDS)}
_AXIS_CODES = {a: i for i, a in enumerate(AXES)}
# qubits by op code: a gate's arity, one measured qubit, and -1, which no
# count matches, for an oracle and for any other object
_ARITY = tuple(k.arity for k in GATE_KINDS) + (-1, 1, -1)
_ARITIES = np.array(_ARITY)
_S, _CNOT = _CODES[GateKind.S], _CODES[GateKind.CNOT]


def index_column(values) -> np.ndarray:
    """``values`` as an int64 column, or as Python ints (dtype object)
    when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class OpTable:
    """A circuit's ops as columns, one row per op: instructions over a flat
    target array, as in Stim (Gidney, arXiv:2103.02202).

    ``kind`` holds the op codes, and op i's qubits are ``targets[start[i] :
    start[i + 1]]``: a gate's targets, the measured qubit, or an oracle's
    inputs then its output.  ``cond`` is a gate's condition bit, -1 for
    none (a negative bit b is stored as b - 1); ``axis`` and ``dest`` are a
    measurement's axis code and bit, -1 for other ops; ``functions`` maps
    each oracle's index to its function.
    """

    kind: np.ndarray
    start: np.ndarray
    targets: np.ndarray
    cond: np.ndarray
    axis: np.ndarray
    dest: np.ndarray
    functions: dict[int, BooleanFunction]

    @classmethod
    def of(cls, ops) -> tuple["OpTable", bool]:
        """The table of ``ops``, and whether nothing in them can change: a
        tuple of ops whose qubit sequences are tuples."""
        kind, targets, cond, axis, dest, functions = [], [], [], [], [], {}
        start = [0]
        fixed = type(ops) is tuple
        for i, op in enumerate(ops):
            c = a = d = -1
            if isinstance(op, GateApp):
                k, qs = _CODES[op.kind], op.targets
                if op.condition is not None:
                    c = op.condition if op.condition >= 0 else op.condition - 1
            elif isinstance(op, Measure):
                k, qs, a, d = MEASURE, (op.qubit,), _AXIS_CODES.get(op.axis, -1), op.dest
            elif isinstance(op, OracleApp):
                k, qs = ORACLE, op.inputs
                functions[i] = op.function
            else:
                k, qs = _OTHER, ()
            fixed = fixed and type(qs) is tuple
            kind.append(k)
            targets += qs
            if k == ORACLE:
                targets.append(op.output)
            start.append(len(targets))
            cond.append(c)
            axis.append(a)
            dest.append(d)
        table = cls(np.array(kind, dtype=np.uint8), np.array(start, dtype=np.int64),
                    index_column(targets), index_column(cond), index_column(axis),
                    index_column(dest), functions)
        return table, fixed

    def rows(self) -> list[tuple[int, list[int], int, int, int]]:
        """Each op as a ``(code, qubits, cond, axis, dest)`` row of Python
        ints, its qubits a list."""
        targets, start = self.targets.tolist(), self.start.tolist()
        return list(zip(self.kind.tolist(), (targets[a:b] for a, b in zip(start, start[1:])),
                        self.cond.tolist(), self.axis.tolist(), self.dest.tolist()))

    def ops(self) -> tuple[CircuitOp, ...]:
        """The ops of this table, built afresh."""
        out: list[CircuitOp] = []
        for i, (k, qs, c, a, d) in enumerate(self.rows()):
            if k == MEASURE:
                out.append(Measure(qs[0], AXES[a], d))
            elif k == ORACLE:
                out.append(OracleApp(self.functions[i], tuple(qs[:-1]), qs[-1]))
            else:
                condition = None if c == -1 else c if c >= 0 else c + 1
                out.append(GateApp(GATE_KINDS[k], tuple(qs), condition))
        return tuple(out)


@dataclass(frozen=True)
class Circuit:
    """A qubit count, a classical-bit count and the ops, in program order.

    ``ops`` is the public view.  The rules, the classification and the
    backends read the circuit's :class:`OpTable` instead (:func:`op_table`).
    The text parser builds the table alone (:meth:`from_table`), and
    ``ops`` from it on first access; a circuit built from ops builds its
    table on first use.  Either, once built, is kept on the instance.
    """

    n_qubits: int
    n_cbits: int
    ops: tuple[CircuitOp, ...]

    @classmethod
    def from_table(cls, n_qubits: int, n_cbits: int, table: OpTable) -> "Circuit":
        """The circuit whose ops ``table`` holds; its ``ops`` are built
        from the table when first read."""
        circuit = cls.__new__(cls)
        object.__setattr__(circuit, "n_qubits", n_qubits)
        object.__setattr__(circuit, "n_cbits", n_cbits)
        object.__setattr__(circuit, "_table", table)
        return circuit

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the ops of a
        # circuit built from_table, until they are first read.
        table = self.__dict__.get("_table")
        if name != "ops" or table is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ops = table.ops()
        object.__setattr__(self, "ops", ops)
        return ops


def op_table(circuit: Circuit) -> OpTable:
    """``circuit``'s op table.  A table built from ``ops`` is kept on the
    instance when nothing in them can change (:meth:`OpTable.of`), and is
    built afresh on each call otherwise."""
    table = circuit.__dict__.get("_table")
    if table is None:
        table, fixed = OpTable.of(circuit.ops)
        if fixed:
            object.__setattr__(circuit, "_table", table)
    return table


@dataclass(frozen=True)
class Violation:
    op_index: int
    kind: str
    message: str


def validate(circuit: Circuit) -> list[Violation]:
    """Check every op invariant; an empty list means the circuit is well formed.

    The rules live in :func:`_judge` alone (the text parser reports their
    violations at the op's line).  A screen over the columns of the op
    table (:func:`op_table`) picks the ops that may break one: oracles,
    unknown objects, gates of the wrong arity, CNOTs on one qubit twice,
    ops with a qubit out of range, measurements with a bit out of range,
    and gates conditioned on a bit no earlier measurement in range writes.
    Only those are judged, in op order, so the violations come op by op.
    """
    out: list[Violation] = []
    n, m = circuit.n_qubits, circuit.n_cbits
    if n < 1:
        out.append(Violation(-1, "bad_counts", "circuit needs at least one qubit"))
    if m < 0:
        out.append(Violation(-1, "bad_counts", "negative classical bit count"))
    t = op_table(circuit)
    kind, start, targets, cond, dest = t.kind, t.start, t.targets, t.cond, t.dest
    count = start[1:] - start[:-1]
    suspect = count != _ARITIES[kind]  # a gate of the wrong arity, an oracle or an unknown object
    pairs = np.flatnonzero((kind == _CNOT) & (count == 2))
    suspect[pairs[targets[start[pairs]] == targets[start[pairs] + 1]]] = True
    bad = np.flatnonzero((targets < 0) | (targets >= n))
    if len(bad):
        suspect[np.searchsorted(start, bad, side="right") - 1] = True
    writers = np.flatnonzero(kind == MEASURE)  # then only those whose bit is in range
    lost = (dest[writers] < 0) | (dest[writers] >= m)
    suspect[writers[lost]] = True
    writers = writers[~lost]
    unwritten: set[int] = set()  # the gates conditioned on a bit in range no earlier op writes
    gated = np.flatnonzero(cond != -1)
    if len(gated):
        c = cond[gated]
        wild = (c < 0) | (c >= m)
        suspect[gated[wild]] = True
        gated, c = gated[~wild], c[~wild]
        bits, first = np.unique(dest[writers], return_index=True)  # each bit's first writer
        at = np.minimum(np.searchsorted(bits, c), max(len(bits) - 1, 0))
        written = (bits[at] == c) & (writers[first[at]] < gated) if len(bits) else gated < 0
        gated = gated[~written]
        suspect[gated] = True
        unwritten = set(gated.tolist())
    for i in np.flatnonzero(suspect).tolist():
        if kind[i] == _OTHER:
            out.append(Violation(i, "unknown_op", f"unrecognized op {circuit.ops[i]!r}"))
        else:
            out += _judge(i, int(kind[i]), targets[start[i] : start[i + 1]].tolist(), int(cond[i]),
                          int(dest[i]), t.functions.get(i), n, m, i not in unwritten)
    return out


def violations(circuit: Circuit) -> tuple[Violation, ...]:
    """:func:`validate`'s verdict on ``circuit``.

    The verdict is kept on the instance with its op table, and later
    calls return it without evaluating the rules again.  A circuit whose
    table is not kept, its ops in a list or its qubits in one, could
    change after the verdict, and is judged afresh on each call.
    """
    verdict = circuit.__dict__.get("_violations")
    if verdict is None:
        verdict = tuple(validate(circuit))
        if "_table" in circuit.__dict__:
            object.__setattr__(circuit, "_violations", verdict)
    return verdict


def check_op(op: CircuitOp, n_qubits: int) -> None:
    """Raise ``ValueError`` with :func:`validate`'s first message unless
    the gate or oracle ``op``, its condition dropped, keeps the circuit
    rules on ``n_qubits`` qubits.

    :func:`_judge` judges the op as a row of its own with no classical
    bits, so a lone ``Measure`` fails on its bit.
    """
    if n_qubits < 1:
        raise ValueError("circuit needs at least one qubit")
    dest, function = -1, None
    if isinstance(op, GateApp):
        code, qubits = _CODES[op.kind], op.targets
    elif isinstance(op, OracleApp):
        code, qubits, function = ORACLE, (*op.inputs, op.output), op.function
    elif isinstance(op, Measure):
        code, qubits, dest = MEASURE, (op.qubit,), op.dest
    else:
        raise ValueError(f"unrecognized op {op!r}")
    bad = _judge(0, code, qubits, -1, dest, function, n_qubits, 0, True)
    if bad:
        raise ValueError(bad[0].message)


def _judge(i: int, code: int, qubits, cond: int, dest: int, function: BooleanFunction | None,
           n: int, m: int, written: bool) -> list[Violation]:
    """The circuit rules op ``i`` breaks, a row of its op table (``cond``
    and ``dest`` as the table holds them) on ``n`` qubits and ``m`` bits;
    ``written`` says an earlier measurement in range writes its condition.
    In order: an oracle's arity, distinct inputs and an output that is no
    input, or a gate's arity, else a CNOT's two distinct qubits; its first
    qubit out of range; a measurement's bit or a condition out of range,
    else a condition that no earlier measurement writes.
    """
    out = []
    if code == ORACLE:
        *inputs, output = qubits
        if len(inputs) != function.arity:
            out.append(Violation(i, "arity_mismatch", f"truth table has {1 << function.arity} "
                                 f"entries but {len(inputs)} input(s) need {1 << len(inputs)}"))
        if len(set(inputs)) != len(inputs):
            out.append(Violation(i, "duplicate_qubit", "oracle input qubits must be distinct"))
        if output in inputs:
            out.append(Violation(i, "duplicate_qubit", f"oracle output q{output} is also an input"))
    elif code < ORACLE:
        if len(qubits) != _ARITY[code]:
            kind = GATE_KINDS[code]
            out.append(Violation(i, "arity_mismatch",
                                 f"{kind.value} takes {kind.arity} qubit(s), got {len(qubits)}"))
        elif code == _CNOT and qubits[0] == qubits[1]:
            out.append(Violation(i, "duplicate_qubit", "cnot needs two distinct qubits"))
    for q in qubits:
        if not 0 <= q < n:
            out.append(Violation(i, "index_out_of_range",
                                 f"qubit q{q} out of range (circuit has {n})"))
            break
    if code == MEASURE or cond != -1:
        bit = dest if code == MEASURE else cond if cond >= 0 else cond + 1
        if not 0 <= bit < m:
            out.append(Violation(i, "index_out_of_range",
                                 f"classical bit c{bit} out of range (circuit has {m})"))
        elif code != MEASURE and not written:
            out.append(Violation(i, "undefined_condition_bit",
                                 f"condition bit c{bit} is not written by any earlier measure"))
    return out


@dataclass(frozen=True)
class GKReport:
    """Whether a circuit stays inside the efficiently-simulable fragment.

    The fragment: computational-basis preparation, the Clifford gates
    (conditioned or not), and Pauli-basis measurements.  Oracles and the
    S gate fall outside it.
    """

    is_gk: bool
    first_offender: int | None = None


def first_outside_fragment(table: OpTable) -> int | None:
    """The index of the first S gate or oracle in ``table``, or None."""
    outside = np.flatnonzero((table.kind == _S) | (table.kind == ORACLE))
    return int(outside[0]) if len(outside) else None


def classify_gottesman_knill(circuit: Circuit) -> GKReport:
    first = first_outside_fragment(op_table(circuit))
    return GKReport(first is None, first)


# ---------------------------------------------------------------------------
# Library circuits


def deutsch(f: BooleanFunction) -> Circuit:
    """The one-query circuit deciding whether a one-bit function is constant.

    Both qubits are flipped to |1>, sent through H, queried through the
    oracle once, and the first qubit is H-ed again and measured.  The
    classical bit reads 1 when f is constant and 0 when f is balanced.
    """
    if f.arity != 1:
        raise ValueError("deutsch takes a one-bit function")
    ops: tuple[CircuitOp, ...] = (
        GateApp(GateKind.X, (0,)),
        GateApp(GateKind.X, (1,)),
        GateApp(GateKind.H, (0,)),
        GateApp(GateKind.H, (1,)),
        OracleApp(f, (0,), 1),
        GateApp(GateKind.H, (0,)),
        Measure(0, PauliAxis.Z, 0),
    )
    return Circuit(2, 1, ops)


def gk_entangler() -> Circuit:
    """Clifford-only two-qubit circuit whose output is the singlet state.

    |00> -X,X-> |11> -H(q0)-> (|01> - |11>)/sqrt(2) -CNOT-> (|01> - |10>)/sqrt(2).
    """
    ops: tuple[CircuitOp, ...] = (
        GateApp(GateKind.X, (0,)),
        GateApp(GateKind.X, (1,)),
        GateApp(GateKind.H, (0,)),
        GateApp(GateKind.CNOT, (0, 1)),
    )
    return Circuit(2, 0, ops)


def ghz(n: int) -> Circuit:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits via H plus a CNOT chain."""
    if n < 2:
        raise ValueError("ghz needs at least two qubits")
    ops: list[CircuitOp] = [GateApp(GateKind.H, (0,))]
    ops.extend(GateApp(GateKind.CNOT, (k, k + 1)) for k in range(n - 1))
    return Circuit(n, 0, tuple(ops))

