"""Circuit intermediate representation.

A circuit is an immutable value: a qubit count, a classical-bit count,
and a sequence of ops.  Three op kinds exist:

* ``GateApp`` — one of the eight named gates, optionally conditioned on
  a classical bit,
* ``OracleApp`` — a reversible XOR-oracle for an arbitrary boolean
  function, ``|x>|y> -> |x>|y XOR f(x)>``,
* ``Measure`` — a single-qubit Pauli-basis measurement writing one
  classical bit.

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


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    n_cbits: int
    ops: tuple[CircuitOp, ...]


@dataclass(frozen=True)
class Violation:
    op_index: int
    kind: str
    message: str


def validate(circuit: Circuit) -> list[Violation]:
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


def violations(circuit: Circuit, keep: bool = False) -> tuple[Violation, ...]:
    """:func:`validate`'s verdict on ``circuit``.

    ``keep=True`` keeps the verdict on the instance, and later calls
    return it without evaluating the rules again.  Only a caller that
    built ``circuit`` from tuples all the way down may keep it, as the
    parser does: a list in ``ops`` or in an op's indices could change
    after the verdict.  Every other circuit is judged afresh on each call.
    """
    verdict = circuit.__dict__.get("_violations")
    if verdict is None:
        verdict = tuple(validate(circuit))
        if keep:
            object.__setattr__(circuit, "_violations", verdict)
    return verdict


def check_op(op: CircuitOp, n_qubits: int) -> None:
    """Raise ``ValueError`` with :func:`validate`'s first message unless
    the gate or oracle ``op``, its condition dropped, keeps the circuit
    rules on ``n_qubits`` qubits."""
    if isinstance(op, GateApp) and op.condition is not None:
        op = GateApp(op.kind, op.targets)
    bad = validate(Circuit(n_qubits, 0, (op,)))
    if bad:
        raise ValueError(bad[0].message)


def _qubit_out_of_range(i: int, q: int, n: int) -> Violation:
    return Violation(i, "index_out_of_range", f"qubit q{q} out of range (circuit has {n})")


def _cbit_out_of_range(i: int, c: int, m: int) -> Violation:
    return Violation(i, "index_out_of_range", f"classical bit c{c} out of range (circuit has {m})")


@dataclass(frozen=True)
class GKReport:
    """Whether a circuit stays inside the efficiently-simulable fragment.

    The fragment: computational-basis preparation, the Clifford gates
    (conditioned or not), and Pauli-basis measurements.  Oracles and the
    S gate fall outside it.
    """

    is_gk: bool
    first_offender: int | None = None


def classify_gottesman_knill(circuit: Circuit) -> GKReport:
    for i, op in enumerate(circuit.ops):
        if isinstance(op, GateApp):
            if not op.kind.is_clifford:
                return GKReport(False, i)
        elif isinstance(op, OracleApp):
            return GKReport(False, i)
        # Pauli-basis measurements are always inside the fragment.
    return GKReport(True, None)


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


def oracle_step(f: BooleanFunction) -> Circuit:
    """Uniform superposition over inputs followed by one oracle query."""
    k = f.arity
    ops: list[CircuitOp] = [GateApp(GateKind.H, (q,)) for q in range(k)]
    ops.append(OracleApp(f, tuple(range(k)), k))
    return Circuit(k + 1, 0, tuple(ops))


_LIBRARY = {
    "deutsch": deutsch,
    "gk_entangler": gk_entangler,
    "ghz": ghz,
    "oracle_step": oracle_step,
}


def build_library_circuit(name: str, **params) -> Circuit:
    """Build one of the named library circuits.

    ``deutsch`` and ``oracle_step`` take ``f=BooleanFunction``; ``ghz``
    takes ``n=int``; ``gk_entangler`` takes no parameters.
    """
    try:
        builder = _LIBRARY[name]
    except KeyError:
        raise ValueError(f"unknown library circuit {name!r}; have {sorted(_LIBRARY)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {name!r}: {exc}") from None
