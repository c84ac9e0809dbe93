"""Stabilizer-tableau backend.

Simulates circuits built from computational-basis preparation, the
Clifford gates (conditioned or not), and Pauli-basis measurements — in
polynomial time and memory regardless of qubit count.  Anything outside
that fragment (the S gate, oracles) raises :class:`NonClifford`.

Representation: the binary symplectic tableau. Rows 0..n-1 are
destabilizer generators, rows n..2n-1 stabilizer generators.  Row ``i``
encodes a signed Pauli string: ``x``/``z`` hold its X and Z bit vectors
packed 64 qubits per ``uint64`` word (qubit q lives in word ``q >> 6``
at bit ``q & 63``), and ``r[i]`` holds the sign bit (1 means the string
carries a leading minus; signs are always real — that is the tableau
invariant that makes measurement dichotomic).

Phases live in a ``(2n, batch)`` matrix so a multi-shot run shares one
structural tableau: gates and measurements update the x/z words once
and the per-shot sign bits as a vectorized column operation.  A sign
update touches only the rows it flips (:func:`_flip`), never the whole
matrix.  A single logical tableau is just ``batch == 1``.

A multi-shot run is laid out per measurement across shots, as sign rows
are: the random draws arrive as coin rows (:func:`qsim.rng.shot_coins`,
row ``k`` holding measurement ``k``'s coin for every shot, drawn in
blocks of whole shots under the same stream discipline as the dense
backend), and the classical bits are kept as an ``(n_cbits, shots)``
matrix.  A random outcome on the whole batch takes its coin row as is
and writes one contiguous bit row; only a batch split by a conditioned
H, R or CNOT gathers its shots' coins.  No ``(shots, measurements)``
float matrix is ever built.

Gate conjugation is O(n) word operations per gate; a measurement is
O(n^2) bit operations worst case.  Measurement of a Pauli that
anticommutes with some stabilizer row is a fair coin (``p_plus`` is
exactly 0.5); otherwise the outcome is determined (``p_plus`` is
exactly 0 or 1) and is the sign of the product of the stabilizer rows
flagged by the destabilizers.  Those rows commute, so the product's
phase is a sum of per-row terms, each taken against the exclusive
prefix-XOR of the rows before it: one ``bitwise_xor.accumulate`` and
one vectorized phase sum, with no per-row loop.  X-basis measurements
conjugate through H.  Y-basis measurements conjugate through
U = H o R-adjoint, the Clifford taking Y to Z:
(H R†) Y (H R†)† = H (R† Y R) H = H X H = Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    CircuitOp,
    GateApp,
    GateKind,
    Measure,
    OracleApp,
    PauliAxis,
    classify_gottesman_knill,
    validate,
)
from .errors import DegenerateNorm, NonClifford, QsimError, TooManyQubits
from .rng import RNG_ID, shot_coins
from .result import RunResult, histogram
from .statevector import PureState

_ONE = np.uint64(1)


@dataclass
class Tableau:
    n: int
    x: np.ndarray  # (2n, W) uint64
    z: np.ndarray  # (2n, W) uint64
    r: np.ndarray  # (2n, batch) uint8

    @property
    def batch(self) -> int:
        return self.r.shape[1]

    @property
    def words(self) -> int:
        return self.x.shape[1]

    def copy(self) -> "Tableau":
        return Tableau(self.n, self.x.copy(), self.z.copy(), self.r.copy())

    def select(self, mask: np.ndarray) -> "Tableau":
        """A copy holding only the batch columns picked by ``mask``."""
        return Tableau(self.n, self.x.copy(), self.z.copy(), self.r[:, mask].copy())


def init_tableau(n: int, batch: int = 1) -> Tableau:
    """All-zeros state: destabilizers X_i, stabilizers Z_i, signs +."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if batch < 1:
        raise ValueError("batch must be positive")
    words = (n + 63) >> 6
    x = np.zeros((2 * n, words), dtype=np.uint64)
    z = np.zeros((2 * n, words), dtype=np.uint64)
    rows = np.arange(n)
    x[rows, rows >> 6] = _ONE << (rows & 63).astype(np.uint64)
    z[n + rows, rows >> 6] = _ONE << (rows & 63).astype(np.uint64)
    r = np.zeros((2 * n, batch), dtype=np.uint8)
    return Tableau(n, x, z, r)


# ---------------------------------------------------------------------------
# Gate conjugation


def _bitcol(arr: np.ndarray, w: int, b: np.uint64) -> np.ndarray:
    return ((arr[:, w] >> b) & _ONE).astype(np.uint8)


def _flip(t: Tableau, rows: np.ndarray, cols: np.ndarray | None = None) -> None:
    """Flip the sign of every row flagged in ``rows``: in every shot, or
    only in the shots whose entry of the uint8 ``cols`` is 1."""
    hit = np.flatnonzero(rows)
    t.r[hit] ^= 1 if cols is None else cols


def _gate_h(t: Tableau, q: int) -> None:
    w, b = q >> 6, np.uint64(q & 63)
    _flip(t, _bitcol(t.x, w, b) & _bitcol(t.z, w, b))
    diff = (t.x[:, w] ^ t.z[:, w]) & (_ONE << b)
    t.x[:, w] ^= diff
    t.z[:, w] ^= diff


def _gate_r(t: Tableau, q: int) -> None:
    w, b = q >> 6, np.uint64(q & 63)
    _flip(t, _bitcol(t.x, w, b) & _bitcol(t.z, w, b))
    t.z[:, w] ^= t.x[:, w] & (_ONE << b)


_PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)


def _pauli_flips(t: Tableau, kind: GateKind, q: int) -> np.ndarray:
    """The rows whose sign an X, Y or Z on q flips: those anticommuting with it.

    A Pauli gate changes nothing else, so applying it to some shots of a
    batch is a sign flip on their columns alone.
    """
    w, b = q >> 6, np.uint64(q & 63)
    if kind is GateKind.X:
        return _bitcol(t.z, w, b)
    if kind is GateKind.Z:
        return _bitcol(t.x, w, b)
    return _bitcol(t.x, w, b) ^ _bitcol(t.z, w, b)


def _gate_cnot(t: Tableau, control: int, target: int) -> None:
    wc, bc = control >> 6, np.uint64(control & 63)
    wt, bt = target >> 6, np.uint64(target & 63)
    xc = _bitcol(t.x, wc, bc)
    zc = _bitcol(t.z, wc, bc)
    xt = _bitcol(t.x, wt, bt)
    zt = _bitcol(t.z, wt, bt)
    _flip(t, xc & zt & (xt ^ zc ^ 1))
    t.x[:, wt] ^= xc.astype(np.uint64) << bt
    t.z[:, wc] ^= zt.astype(np.uint64) << bc


def _apply_kind(t: Tableau, kind: GateKind, targets: tuple[int, ...]) -> None:
    if kind is GateKind.I:
        return
    if kind is GateKind.H:
        _gate_h(t, targets[0])
    elif kind is GateKind.R:
        _gate_r(t, targets[0])
    elif kind in _PAULIS:
        _flip(t, _pauli_flips(t, kind, targets[0]))
    elif kind is GateKind.CNOT:
        _gate_cnot(t, targets[0], targets[1])
    else:
        raise NonClifford(f"{kind.value} is outside the stabilizer gate set")


def apply_clifford(t: Tableau, op: CircuitOp) -> None:
    """Conjugate all rows by a Clifford gate, in place.

    Conditioned gates are resolved by :func:`run`; here a condition is
    an error so nothing is silently skipped.
    """
    if isinstance(op, OracleApp):
        raise NonClifford("oracles are outside the stabilizer gate set")
    if isinstance(op, Measure):
        raise ValueError("apply_clifford does not measure; use measure_pauli()")
    if not isinstance(op, GateApp):
        raise TypeError(f"unknown op {op!r}")
    if op.condition is not None:
        raise ValueError("conditioned gate reached apply_clifford; resolve the condition first")
    if any(not 0 <= q < t.n for q in op.targets):
        raise ValueError(f"qubit index out of range in {op}")
    _apply_kind(t, op.kind, op.targets)


# ---------------------------------------------------------------------------
# Row products.  _g_sum gives the exponent-of-i contribution of
# multiplying Pauli strings (x1,z1) (left) onto (x2,z2) (right), summed
# over qubits via popcounts of the +1 and -1 selector masks.


def _g_sum(x1, z1, x2, z2) -> np.ndarray:
    plus = (x1 & z1 & z2 & ~x2) | (x1 & ~z1 & z2 & x2) | (~x1 & z1 & x2 & ~z2)
    minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & z2 & ~x2) | (~x1 & z1 & x2 & z2)
    return (
        np.bitwise_count(plus).astype(np.int64).sum(axis=-1)
        - np.bitwise_count(minus).astype(np.int64).sum(axis=-1)
    )


def _rowsum_many(t: Tableau, rows: np.ndarray, p: int) -> None:
    """row_h <- row_p * row_h for every h in ``rows`` (vectorized).

    The new sign is ``(2 r_h + 2 r_p + g) % 4 == 2``: ``r_h ^ r_p``,
    flipped where ``g % 4 == 2``, and 0 where ``g`` is odd (an
    imaginary product, which only destabilizer rows can take).
    """
    g = _g_sum(t.x[p], t.z[p], t.x[rows], t.z[rows])  # (k,)
    signs = t.r[rows] ^ t.r[p]
    signs ^= ((g & 3) == 2)[:, None]
    signs[(g & 1) == 1] = 0
    t.r[rows] = signs
    t.x[rows] ^= t.x[p]
    t.z[rows] ^= t.z[p]


# ---------------------------------------------------------------------------
# Measurement


def _measure_z(t: Tableau, q: int, coins: np.ndarray | None, force_bit: int | None):
    """Z-measure qubit q on every batch column.

    Returns ``(bits, p_plus)`` with shape (batch,): bit 0 records the
    +1 outcome.  ``coins`` supplies each column's coin bit, 1 where its
    uniform draw is at least 1/2 (used only when the outcome is random);
    ``force_bit`` overrides the coin.
    """
    n = t.n
    w, b = q >> 6, np.uint64(q & 63)
    xcol = ((t.x[:, w] >> b) & _ONE).astype(bool)
    anti = np.flatnonzero(xcol[n:])
    if anti.size:
        # Some stabilizer anticommutes with Z_q: a fair coin.
        p = n + int(anti[0])
        rows = np.flatnonzero(xcol)
        rows = rows[rows != p]
        if rows.size:
            _rowsum_many(t, rows, p)
        t.x[p - n] = t.x[p]
        t.z[p - n] = t.z[p]
        t.r[p - n] = t.r[p]
        t.x[p] = 0
        t.z[p] = 0
        t.z[p, w] = _ONE << b
        t.r[p] = coins if force_bit is None else force_bit
        return t.r[p].copy(), np.full(t.batch, 0.5)
    # Determined: the sign of the product of the stabilizer rows the
    # destabilizers flag.  Row k multiplies onto the product of the rows
    # before it, whose x/z words are their exclusive prefix-XOR.  The rows
    # commute, so every step's exponent g is even and the steps add up:
    # the sign is the parity of the rows' signs, flipped when sum(g) % 4 == 2.
    rows = n + np.flatnonzero(xcol[:n])
    xs, zs = t.x[rows], t.z[rows]
    px = np.bitwise_xor.accumulate(xs, axis=0) ^ xs
    pz = np.bitwise_xor.accumulate(zs, axis=0) ^ zs
    g = int(_g_sum(xs, zs, px, pz).sum())
    bits = np.bitwise_xor.reduce(t.r[rows], axis=0) ^ np.uint8((g & 3) == 2)
    return bits, (bits == 0).astype(np.float64)


def _measure_axis(t: Tableau, q: int, axis: PauliAxis, coins, force_bit):
    if axis is PauliAxis.Z:
        return _measure_z(t, q, coins, force_bit)
    if axis is PauliAxis.X:
        _gate_h(t, q)
        out = _measure_z(t, q, coins, force_bit)
        _gate_h(t, q)
        return out
    # Y: conjugate through U = H o R-adjoint (R-adjoint = three R's).
    for _ in range(3):
        _gate_r(t, q)
    _gate_h(t, q)
    out = _measure_z(t, q, coins, force_bit)
    _gate_h(t, q)
    _gate_r(t, q)
    return out


@dataclass(frozen=True)
class TableauMeasurement:
    outcome: int  # +1 or -1
    p_plus: float  # exactly 0.0, 0.5, or 1.0


def measure_pauli(
    t: Tableau,
    qubit: int,
    axis: PauliAxis,
    rng: np.random.Generator | None = None,
    force_bit: int | None = None,
) -> TableauMeasurement:
    """Measure one qubit in a Pauli basis, mutating the tableau.

    ``p_plus`` is exactly 0, 1/2, or 1.  A random outcome consumes one
    draw from ``rng``; ``force_bit`` pins it instead (useful for
    cross-backend trajectory matching).  Forcing a determined
    measurement against its value raises :class:`DegenerateNorm`.
    """
    if t.batch != 1:
        raise ValueError("measure_pauli is the single-tableau API; run() handles batches")
    if not 0 <= qubit < t.n:
        raise ValueError(f"qubit q{qubit} out of range")
    coins = None
    if force_bit is None:
        if rng is None:
            raise ValueError("need rng (or force_bit)")
        coins = np.array([rng.random() >= 0.5], dtype=np.uint8)  # u < 1/2 means +1
    bits, p_plus = _measure_axis(t, qubit, axis, coins, force_bit)
    bit = int(bits[0])
    if force_bit is not None and bit != force_bit:
        raise DegenerateNorm("forced outcome has probability zero")
    return TableauMeasurement(1 - 2 * bit, float(p_plus[0]))


# ---------------------------------------------------------------------------
# Whole-circuit sampling


# A group of shots sharing one structural tableau: the tableau (one sign
# column per shot), the shots' classical bits as an (n_cbits, shots)
# matrix, one contiguous row per bit, and their shot indices.
_Group = tuple[Tableau, np.ndarray, np.ndarray]


def _step(groups: list[_Group], op: CircuitOp, coins: np.ndarray | None) -> list[_Group]:
    """Apply one op to every group, conditioned ops as :func:`run`
    describes; returns the groups after it.  ``coins`` is the
    measurement's coin row over all shots (see :func:`qsim.rng.shot_coins`)
    and None for a gate."""
    if isinstance(op, Measure):  # oracles cannot reach here (classifier gate)
        for t, cb, idx in groups:
            mine = coins if len(idx) == len(coins) else coins[idx]
            cb[op.dest], _ = _measure_axis(t, op.qubit, op.axis, mine, None)
        return groups
    if op.condition is None:
        for t, _, _ in groups:
            _apply_kind(t, op.kind, op.targets)
        return groups
    if op.kind in _PAULIS:
        for t, cb, _ in groups:
            _flip(t, _pauli_flips(t, op.kind, op.targets[0]), cb[op.condition])
        return groups
    split: list[_Group] = []
    for t, cb, idx in groups:
        mask = cb[op.condition] == 1
        if mask.all():
            _apply_kind(t, op.kind, op.targets)
            split.append((t, cb, idx))
        elif not mask.any():
            split.append((t, cb, idx))
        else:
            hot = t.select(mask)
            _apply_kind(hot, op.kind, op.targets)
            split.append((hot, cb[:, mask], idx[mask]))
            split.append((t.select(~mask), cb[:, ~mask], idx[~mask]))
    return split


def run(circuit: Circuit, shots: int, seed: int, keep_final_state: bool = False) -> RunResult:
    """Sample ``shots`` executions of a Clifford/measurement circuit.

    The batch shares one structural tableau.  A classically conditioned
    X, Y or Z flips the signs of the shots whose condition bit is set and
    keeps the batch whole; a conditioned H, R or CNOT splits it into
    groups by condition-bit value, since shots that took different
    branches no longer share structure.  Shot ``i`` draws from its own
    Philox counter block exactly as in the dense backend; the draws
    arrive as coin rows, one per measurement across all shots, and the
    classical bits are kept the same way.
    """
    rep = classify_gottesman_knill(circuit)
    if not rep.is_gk:
        raise NonClifford(
            f"op {rep.first_offender} is outside the stabilizer fragment",
            rep.first_offender,
        )
    bad = validate(circuit)
    if bad:
        raise ValueError(f"invalid circuit: op {bad[0].op_index}: {bad[0].message}")
    if shots < 1:
        raise ValueError("shots must be positive")

    n, m = circuit.n_qubits, circuit.n_cbits
    n_meas = sum(isinstance(op, Measure) for op in circuit.ops)
    coins = iter(shot_coins(seed, shots, n_meas))

    groups: list[_Group] = [
        (init_tableau(n, shots), np.zeros((m, shots), dtype=np.uint8), np.arange(shots))
    ]
    for op in circuit.ops:
        groups = _step(groups, op, next(coins) if isinstance(op, Measure) else None)

    final: Tableau | None = None
    if keep_final_state:
        t, _, idx = next(g for g in groups if g[2][-1] == shots - 1)
        final = t.select(idx == shots - 1)
    return RunResult(
        backend="stab",
        shots=shots,
        seed=seed,
        rng_id=RNG_ID,
        counts=histogram((cb.T, np.ones(cb.shape[1], dtype=np.int64)) for _, cb, _ in groups),
        final_state=final,
    )


# ---------------------------------------------------------------------------
# Dense cross-validation


def _apply_row_to_vector(t: Tableau, row: int, v: np.ndarray) -> np.ndarray:
    """Apply the signed Pauli string in ``row`` to a dense vector."""
    n = t.n
    x_basis = 0
    z_basis = 0
    n_y = 0
    for q in range(n):
        w, b = q >> 6, q & 63
        xq = (int(t.x[row, w]) >> b) & 1
        zq = (int(t.z[row, w]) >> b) & 1
        if xq:
            x_basis |= 1 << (n - 1 - q)
        if zq:
            z_basis |= 1 << (n - 1 - q)
        n_y += xq & zq
    phase = (1j) ** (n_y % 4) * (-1.0 if int(t.r[row, 0]) else 1.0)
    y = np.arange(1 << n)
    signs = 1.0 - 2.0 * (np.bitwise_count(y & z_basis) & 1).astype(np.float64)
    out = np.empty_like(v)
    out[y ^ x_basis] = phase * signs * v
    return out


def to_statevector(t: Tableau) -> PureState:
    """The unique state the stabilizer rows fix, as a dense vector (n <= 20).

    A forced-outcome Z sweep finds one computational basis state in the
    support; projecting it with (I + S_i)/2 for every stabilizer row
    rebuilds the state, which is then verified against every row.
    """
    if t.batch != 1:
        raise ValueError("to_statevector needs a single-column tableau")
    n = t.n
    if n > 20:
        raise TooManyQubits(f"{n} qubits exceeds the dense reconstruction limit of 20")
    probe = t.copy()
    bits = []
    for q in range(n):
        b, _ = _measure_axis(probe, q, PauliAxis.Z, None, 0)
        bits.append(int(b[0]))
    index = int("".join("01"[b] for b in bits), 2)
    v = np.zeros(1 << n, dtype=np.complex128)
    v[index] = 1.0
    for row in range(n, 2 * n):
        v = 0.5 * (v + _apply_row_to_vector(t, row, v))
    norm = float(np.linalg.norm(v))
    if norm < 1e-9:  # pragma: no cover - the probe guarantees support
        raise QsimError("projector product annihilated the probe state")
    v /= norm
    for row in range(n, 2 * n):
        if float(np.max(np.abs(_apply_row_to_vector(t, row, v) - v))) > 1e-10:
            raise QsimError("reconstructed vector is not fixed by every stabilizer row")
    return PureState(n, v)
