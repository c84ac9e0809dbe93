"""Dense state-vector backend.

States are full vectors of 2^n complex amplitudes (n <= 24).  Gates and
measurements work in place on strided views that split the amplitudes
into the two halves of one qubit's pairs: diagonal gates scale one half,
X and Y swap the halves, and a Z measurement rescales one half and zeroes
the other.  Nothing ever materializes a 2^n x 2^n matrix; the matrix
forms in :mod:`qsim.circuit` exist for unit tests only.

Measurement observables are single-qubit spin directions: a Pauli axis,
or an arbitrary Bloch axis (theta, phi) meaning

    O = cos(theta) Z + sin(theta) cos(phi) X + sin(theta) sin(phi) Y.

The +1 outcome has probability ``p_plus = (1 + <O>)/2``; collapse
projects onto the outcome's eigenspace and renormalizes, zeroing
amplitude dust below 1e-12.  (Computing ``p_plus`` from the expectation
rather than a projected norm lets symmetric cases like ``<Z> = 0``
cancel exactly in floating point.)

``run`` samples whole circuits.  It evolves one amplitude row per
distinct classical history rather than one per shot: shots share a row
until a measurement gives them different outcomes.  Shot ``i`` draws its
measurement randomness from the Philox counter block reserved for shot
``i`` (see :mod:`qsim.rng`), so results are reproducible bit for bit
regardless of how shots are grouped or chunked.  Histogram keys are
classical-bit strings, bit 0 first, with ``0`` recording the +1 outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

from .circuit import (
    Circuit,
    CircuitOp,
    GateApp,
    GateKind,
    Measure,
    OracleApp,
    PauliAxis,
    gate_matrix,
    validate,
)
from .errors import DegenerateNorm, TooManyQubits
from .result import RunResult, histogram
from .rng import RNG_ID, shot_uniforms

MAX_QUBITS = 24

_DUST = 1e-12
_BATCH_BYTES = 1 << 27  # amplitude budget per shot batch (~128 MB)


@dataclass(frozen=True)
class BlochAxis:
    """A measurement direction: polar angle from +Z, azimuth from +X."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError("phi must lie in [0, 2*pi)")


Axis = Union[PauliAxis, BlochAxis]


@dataclass(frozen=True)
class MeasurementSpec:
    qubit: int
    axis: Axis


@dataclass(frozen=True)
class PureState:
    n: int
    amps: np.ndarray  # complex128, length 2**n

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"amplitude vector must have length {1 << self.n}")
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True)
class MeasureOutcome:
    outcome: int  # +1 or -1
    p_plus: float
    state: PureState


def init_state(n: int, bits: str | None = None) -> PureState:
    """Computational-basis state |bits>, defaulting to |0...0>."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > MAX_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the dense limit of {MAX_QUBITS}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    index = 0
    if bits is not None:
        if len(bits) != n or any(c not in "01" for c in bits):
            raise ValueError(f"bits must be {n} characters of 0/1")
        index = int(bits, 2)  # q0 is the leftmost character and the top bit
    amps[index] = 1.0
    return PureState(n, amps)


# ---------------------------------------------------------------------------
# Kernels on strided views.  Qubit q owns bit (n - 1 - q) of the basis
# index, so reshaping the last axis to (2**q, 2, 2**(n-1-q)) puts that bit
# on an axis of its own and both halves of every pair are plain views.
# Kernels work in place on C-contiguous arrays, whose reshape is a view;
# leading axes are the rows of a batch.


def _bitpos(n: int, q: int) -> int:
    return n - 1 - q


def _split(amps: np.ndarray, n: int, q: int) -> np.ndarray:
    """View of the amplitudes as (..., 2**q, 2, 2**(n-1-q)); axis -2 is
    qubit q's bit, and each half keeps basis-index order."""
    return amps.reshape(amps.shape[:-1] + (1 << q, 2, 1 << _bitpos(n, q)))


def _scale(a: np.ndarray, d) -> None:
    """``a *= d`` in place, rounded as ``d * a`` is: numpy rounds a complex
    product written over a one-element operand differently."""
    if a.size == 1:
        a[...] = d * a
    else:
        np.multiply(d, a, out=a)


@lru_cache(maxsize=None)
def _oracle_perm(n: int, inputs: tuple[int, ...], output: int, table: tuple[int, ...]) -> np.ndarray:
    v = np.arange(1 << n)
    x = np.zeros(1 << n, dtype=np.int64)
    for q in inputs:  # first listed input is the top bit of the table index
        x = (x << 1) | ((v >> _bitpos(n, q)) & 1)
    flips = np.asarray(table, dtype=np.int64)[x] << _bitpos(n, output)
    perm = v ^ flips  # an involution: f(x) does not touch the input bits
    perm.setflags(write=False)
    return perm


def _apply_1q(amps: np.ndarray, n: int, q: int, u: np.ndarray) -> None:
    # Dropping a term whose coefficient is 0, or a factor that is 1, leaves
    # every nonzero amplitude bit-identical to the full 2x2 product.
    v = _split(amps, n, q)
    a0, a1 = v[..., 0, :], v[..., 1, :]
    if u[0, 1] == 0 and u[1, 0] == 0:  # I, Z, R, S: scale the halves that change
        for a, d in ((a0, u[0, 0]), (a1, u[1, 1])):
            if d != 1:
                _scale(a, d)
    elif u[0, 0] == 0 and u[1, 1] == 0:  # X, Y: swap the halves, with their phase
        b0 = u[0, 1] * a1
        np.multiply(u[1, 0], a0, out=a1)
        a0[...] = b0
    else:  # H
        t0 = u[0, 1] * a1
        t1 = u[1, 0] * a0
        _scale(a0, u[0, 0])
        a0 += t0
        _scale(a1, u[1, 1])
        a1 += t1


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> None:
    """Swap the target's halves inside the control = 1 slab."""
    lo, hi = sorted((control, target))
    v = amps.reshape(amps.shape[:-1] + (1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << _bitpos(n, hi)))
    if control < target:
        x0, x1 = v[..., 1, :, 0, :], v[..., 1, :, 1, :]
    else:
        x0, x1 = v[..., 0, :, 1, :], v[..., 1, :, 1, :]
    tmp = x0.copy()
    x0[...] = x1
    x1[...] = tmp


def _apply_gate(amps: np.ndarray, n: int, op: GateApp) -> None:
    if op.kind is GateKind.I:
        return
    if op.kind is GateKind.CNOT:
        _apply_cnot(amps, n, op.targets[0], op.targets[1])
    else:
        _apply_1q(amps, n, op.targets[0], gate_matrix(op.kind))


def _apply_oracle(amps: np.ndarray, n: int, op: OracleApp) -> None:
    perm = _oracle_perm(n, op.inputs, op.output, op.function.table)
    amps[...] = amps[..., perm]


def _apply(amps: np.ndarray, n: int, op: CircuitOp) -> None:
    """Apply an unconditioned gate or an oracle in place."""
    if isinstance(op, GateApp):
        _apply_gate(amps, n, op)
    elif isinstance(op, OracleApp):
        _apply_oracle(amps, n, op)
    elif isinstance(op, Measure):
        raise ValueError("apply_op does not measure; use measure()")
    else:
        raise TypeError(f"unknown op {op!r}")


def apply_op(state: PureState, op: CircuitOp, cbits: Iterable[int] | None = None) -> PureState:
    """Apply one op, returning a fresh state (inputs are never mutated).

    ``cbits`` supplies the classical register for conditioned gates.
    ``Measure`` ops are not handled here — use :func:`measure`.
    """
    amps = state.amps.copy()
    if isinstance(op, GateApp) and op.condition is not None:
        if cbits is None:
            raise ValueError("conditioned gate needs the classical register")
        if not list(cbits)[op.condition]:
            return PureState(state.n, amps)
    _apply(amps, state.n, op)
    return PureState(state.n, amps)


def evolve(circuit: Circuit, start: PureState | None = None) -> PureState:
    """Run a measurement-free, unconditioned circuit and return the state.

    ``start`` is copied once and never mutated.
    """
    bad = validate(circuit)
    if bad:
        raise ValueError(f"invalid circuit: {bad[0].message}")
    state = start if start is not None else init_state(circuit.n_qubits)
    amps = state.amps.copy()
    for op in circuit.ops:
        if isinstance(op, Measure) or (isinstance(op, GateApp) and op.condition is not None):
            raise ValueError("evolve handles gate-only circuits; use run() for measurements")
        _apply(amps, state.n, op)
    return PureState(state.n, amps)


# ---------------------------------------------------------------------------
# Measurement


def _observable(axis: Axis) -> np.ndarray:
    if isinstance(axis, PauliAxis):
        return gate_matrix(GateKind[axis.value])
    ct, st = math.cos(axis.theta), math.sin(axis.theta)
    off = st * complex(math.cos(axis.phi), -math.sin(axis.phi))
    return np.array([[ct, off], [off.conjugate(), -ct]], dtype=np.complex128)


def _is_z(obs: np.ndarray) -> bool:
    # Observables are unit spin directions, so these two entries pin Z.
    return obs[0, 1] == 0 and obs[0, 0] == 1


def _norms(a: np.ndarray) -> np.ndarray:
    out = np.square(a.real)
    out += np.square(a.imag)
    return out


def _expectation(amps: np.ndarray, n: int, q: int, obs: np.ndarray) -> np.ndarray:
    """<O> on qubit q; summed per pair first, in basis-index order, so
    symmetric terms cancel exactly."""
    v = _split(amps, n, q)
    a0, a1 = v[..., 0, :], v[..., 1, :]
    n0, n1 = _norms(a0), _norms(a1)
    # Rows are the fastest axis of ``per_pair``, so ``sum`` adds a batch
    # row's pairs one after another in basis-index order and a single
    # row's pairwise; ``p_plus`` is reproducible only in this order.
    per_pair = np.empty(amps.shape[:-1] + (1 << (n - 1),), order="F")
    out = per_pair.reshape(n0.shape)
    if _is_z(obs):
        np.subtract(n0, n1, out=out)
    else:
        np.add(
            obs[0, 0].real * n0 + obs[1, 1].real * n1,
            2.0 * (np.conj(a0) * a1 * obs[0, 1]).real,
            out=out,
        )
    return per_pair.sum(axis=-1)


def _collapse(amps: np.ndarray, n: int, q: int, obs: np.ndarray, outcome, p) -> None:
    """In-place projection onto the outcome eigenspace, renormalized.

    ``outcome`` and ``p`` are scalars, or per-row arrays for a batch.
    """
    v = _split(amps, n, q)
    a0, a1 = v[..., 0, :], v[..., 1, :]
    s = np.asarray(outcome, dtype=np.float64)
    root = np.sqrt(np.asarray(p, dtype=np.float64))
    if s.ndim:  # batch: one outcome per row, covering the row's whole half
        s, root = s[:, None, None], root[:, None, None]
    if _is_z(obs):
        # The general formula keeps 2a / (2 sqrt(p)) of the outcome's half,
        # which numpy divides as a times the reciprocal, equal to a times
        # 1/sqrt(p); the other half cancels to 0.
        a0 *= ((s > 0) / root).astype(np.complex128)
        a1 *= ((s < 0) / root).astype(np.complex128)
    else:
        scale = 2.0 * root
        t0 = obs[0, 0] * a0
        t0 += obs[0, 1] * a1
        t1 = obs[1, 0] * a0
        t1 += obs[1, 1] * a1
        for a, t in ((a0, t0), (a1, t1)):  # a = (a + s t) / scale
            t *= s
            a += t
            a /= scale
    np.copyto(amps, 0.0, where=np.abs(amps) < _DUST)


def project(state: PureState, spec: MeasurementSpec, outcome: int) -> tuple[float, PureState | None]:
    """Probability of ``outcome`` (+1/-1) and the collapsed state.

    The collapsed state is ``None`` when the branch weight is below the
    degeneracy threshold.
    """
    if not 0 <= spec.qubit < state.n:
        raise ValueError(f"qubit q{spec.qubit} out of range")
    obs = _observable(spec.axis)
    e = float(_expectation(state.amps, state.n, spec.qubit, obs))
    p = min(max(0.5 * (1.0 + outcome * e), 0.0), 1.0)
    if p < _DUST:
        return p, None
    amps = state.amps.copy()
    _collapse(amps, state.n, spec.qubit, obs, outcome, p)
    return p, PureState(state.n, amps)


def measure(state: PureState, spec: MeasurementSpec, rng: np.random.Generator) -> MeasureOutcome:
    """Sample one projective measurement (Born rule); returns a fresh state."""
    if not 0 <= spec.qubit < state.n:
        raise ValueError(f"qubit q{spec.qubit} out of range")
    obs = _observable(spec.axis)
    e = float(_expectation(state.amps, state.n, spec.qubit, obs))
    p_plus = min(max(0.5 * (1.0 + e), 0.0), 1.0)
    outcome = 1 if rng.random() < p_plus else -1
    p = p_plus if outcome == 1 else 1.0 - p_plus
    if p < _DUST:
        raise DegenerateNorm(f"branch weight {p} too small to collapse onto")
    amps = state.amps.copy()
    _collapse(amps, state.n, spec.qubit, obs, outcome, p)
    return MeasureOutcome(outcome, p_plus, PureState(state.n, amps))


def joint_probabilities(
    state: PureState, specs: tuple[MeasurementSpec, ...]
) -> dict[tuple[int, ...], float]:
    """Exact joint outcome distribution for simultaneous single-qubit
    measurements on distinct qubits, keyed by tuples of +1/-1."""
    qubits = [s.qubit for s in specs]
    if len(set(qubits)) != len(qubits):
        raise ValueError("joint measurement qubits must be distinct")
    out: dict[tuple[int, ...], float] = {}

    def walk(st: PureState | None, depth: int, prefix: tuple[int, ...], weight: float) -> None:
        if depth == len(specs):
            out[prefix] = weight
            return
        for o in (1, -1):
            if st is None or weight == 0.0:
                walk(None, depth + 1, prefix + (o,), 0.0)
                continue
            p, collapsed = project(st, specs[depth], o)
            walk(collapsed, depth + 1, prefix + (o,), weight * p)

    walk(state, 0, (), 1.0)
    return out


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float = 1e-10) -> bool:
    """True iff a = c*b for a unit complex c, elementwise within tol.

    c is read off the first amplitude of magnitude above 1e-8.
    """
    if a.n != b.n:
        return False
    mags = np.abs(b.amps)
    i = int(np.argmax(mags > 1e-8))
    if mags[i] <= 1e-8:
        return bool(np.max(np.abs(a.amps)) <= tol)
    c = a.amps[i] / b.amps[i]
    return bool(np.max(np.abs(a.amps - c * b.amps)) <= tol)


# ---------------------------------------------------------------------------
# Whole-circuit sampling


def run(circuit: Circuit, shots: int, seed: int, keep_final_state: bool = False) -> RunResult:
    """Sample ``shots`` executions; returns the classical-bit histogram.

    Shots only diverge at measurements, so each row of the amplitude
    array is one distinct classical history and ``group[i]`` is the row
    shot ``i`` is in.  A measurement computes ``p_plus`` once per row,
    compares every shot's own uniform against its row's value, and
    splits a row only when its shots disagree.  Shot ``i`` still draws
    from its own counter block, so the result is identical to running
    the shots one at a time, whatever the grouping or chunking.
    ``keep_final_state`` returns the state of shot ``shots - 1``.
    """
    bad = validate(circuit)
    if bad:
        raise ValueError(f"invalid circuit: op {bad[0].op_index}: {bad[0].message}")
    if shots < 1:
        raise ValueError("shots must be positive")
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the dense limit of {MAX_QUBITS}")

    n_meas = sum(isinstance(op, Measure) for op in circuit.ops)
    uniforms = shot_uniforms(seed, shots, n_meas)
    chunk = max(1, _BATCH_BYTES // (16 << n))  # rows never outnumber a chunk's shots
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
                    _apply_gate(amps, n, op)
                else:
                    mask = cbits[:, op.condition] == 1
                    if mask.all():
                        _apply_gate(amps, n, op)
                    elif mask.any():
                        sub = amps[mask]
                        _apply_gate(sub, n, op)
                        amps[mask] = sub
            elif isinstance(op, OracleApp):
                _apply_oracle(amps, n, op)
            else:
                obs = _observable(op.axis)
                e = _expectation(amps, n, op.qubit, obs)
                p_plus = np.clip(0.5 * (1.0 + e), 0.0, 1.0)
                minus = u[:, m] >= p_plus[group]
                m += 1
                keys, group = np.unique(2 * group + minus, return_inverse=True)
                rows, bit = keys >> 1, (keys & 1).astype(np.uint8)
                if len(keys) > len(amps):  # some row split: one row per new history
                    amps = amps[rows]
                    cbits = cbits[rows]
                p = np.where(bit == 0, p_plus[rows], 1.0 - p_plus[rows])
                if (p < _DUST).any():
                    raise DegenerateNorm("collapse onto a zero-weight branch")
                _collapse(amps, n, op.qubit, obs, 1.0 - 2.0 * bit, p)
                cbits[:, op.dest] = bit
        parts.append((cbits, np.bincount(group, minlength=len(cbits))))
        if keep_final_state:
            final_state = PureState(n, amps[group[-1]].copy())

    return RunResult(
        backend="sv",
        shots=shots,
        seed=seed,
        rng_id=RNG_ID,
        counts=histogram(parts),
        final_state=final_state,
    )
