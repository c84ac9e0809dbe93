"""Stabilizer-tableau backend.

Simulates circuits built from computational-basis preparation, the
Clifford gates (conditioned or not), and Pauli-basis measurements — in
polynomial time and memory regardless of qubit count.  Anything outside
that fragment (the S gate, oracles) raises :class:`NonClifford`.

Representation: the binary symplectic tableau. Rows 0..n-1 are
destabilizer generators, rows n..2n-1 stabilizer generators.  Row ``i``
encodes a signed Pauli string: ``x``/``z`` hold its X and Z bit vectors
packed 64 qubits per ``uint64`` word (qubit q lives in word ``q >> 6``
at bit ``q & 63``), and ``r[i]`` holds the sign (1 means the string
carries a leading minus; signs are always real — that is the tableau
invariant that makes measurement dichotomic).  The three are column
views of one row block, ``(2n, 2W + F)`` words with a row's X words, Z
words and sign form side by side, the layout the row product wants (as
in Stim, Gidney, arXiv:2103.02202): a random measurement's row products
are one gather of the flagged rows, one XOR with the pivot row and one
scatter (:func:`_rowsum_many`), and the pivot moves to its destabilizer
as one row copy (:func:`_collapse`).

A sign is not a bit but a GF(2) affine form over the coin bits, so one
structural tableau serves every shot of a run.  Variable 0 is the
constant and variable k the coin of the run's k-th measurement; a form
is bit-packed, variable v at bit ``v & 63`` of word ``v >> 6``, and
``r`` is ``(2n, F)`` words with ``F = ceil((n_meas + 1) / 64)``.  Every
sign rule is affine in the coins: a gate or a row product flips the
constant, a random measurement sets the pivot's form to its coin's
variable (the one row whose product with the pivot is imaginary is then
overwritten, so its sign is never needed), a determined one is the
XOR of the flagged rows' forms plus a constant, and a conditioned Pauli
XORs its condition bit's form into the rows it flips.  Classical bits
are forms too.  A single tableau (:func:`init_tableau` with no coins)
has constant forms, and its signs are plain bits.

Shots meet only at the ends of a block of :func:`run`: a block's coins
are drawn first as packed bytes (``qsim.rng.shot_uniforms(..., coins=True)``,
under the same stream discipline as the dense backend), and every
classical bit is one GF(2) product over them (:func:`_write_keys`),
written straight into the block's packed key words, which
:func:`qsim.result.count_keys` sorts as they are.  Sign work does not
grow with shots, and memory grows only with a block's coin bytes and
keys.

:func:`run` reads the circuit's op table (:func:`qsim.circuit.op_table`),
never its op objects: the gates between two barriers (a measurement or
a conditioned op) as slices of the kind, qubit and target columns, a
run of consecutive measurements as ``(qubit, axis, dest)`` rows
(:func:`_segments`).

Gates act on bit columns.  Every gate rule reads and writes only the X
and Z columns of its own qubits, so :func:`_apply_gates` takes a run of
gates between two barriers at once:
it gathers the touched qubits' columns as Python ints over the 2n rows,
applies each gate in program order with a few int operations (H swaps
X and Z, R XORs X into Z, a CNOT XORs Xc into Xt and Zt into Zc, the
Paulis change no column), folds every sign flip into one int, and
writes back only the columns that changed.  The same kernel applies a
lone gate, :func:`apply_clifford` and the conditioned gates.

A measurement is O(n^2) bit operations worst case.  Measurement of a
Pauli P on qubit q that anticommutes with some stabilizer row is a fair
coin (``p_plus`` is exactly 0.5); otherwise the outcome is determined
(``p_plus`` is exactly 0 or 1) and is the sign of the product of the
stabilizer rows flagged by the destabilizers.  A row anticommutes with
Z_q where its x bit at q is set, with X_q where its z bit is, and with
Y_q where the two differ, so X and Y are measured directly, with no
change of basis; a random outcome leaves X_q or Y_q as the new
stabilizer row.  The flagged rows commute, so the product's phase is a
sum of per-row terms and of one term per pair of rows.

A run of consecutive measurements is classified a window at a time from
one read of which rows anticommute with them (:func:`_anticommuting`,
the one reader of that question), in :func:`_measure_run`.  A determined
measurement leaves the tableau as it is, and its outcome waits inside
its run of measurements, which answers its waiting outcomes at once
(:func:`_determined`) when it ends.  Deferring them past the run's
random measurements is exact.  A determined Pauli P is in the
stabilizer group with some sign form s.  A random measurement of a
Pauli Q on another qubit commutes with P, so P stays in the group after
the collapse, with the same sign for every value of the coins: read
from the later tableau, its form is an affine form equal to s as a
function of the coins, and affine forms over GF(2) that agree
everywhere are the same form.  Only a random measurement of P's own
qubit (along another axis, since P itself is determined) takes P out of
the group, so the waiting outcomes are answered first when the run has
measured the collapsing qubit; a waiting outcome whose bit the random
outcome overwrites is dropped.

Every GF(2) product of the backend is one kernel, :func:`_product`, the
Method of Four Russians (Albrecht, Bard & Hart, arXiv:0811.1714): byte
tables of every XOR of 8 rows of the right factor, read by each row's
bytes of the left, in bounded chunks and one contiguous range of rows
per usable core.  The shot keys are the coins times the bits' forms.
The waiting outcomes of a run, with D their flags over the stabilizer
rows, are D times the rows' forms, and their phases are a quadratic
form in D over the rows' X-times-Z parities, two more products.  GHZ-n
measured in full is one coin and one :func:`_determined` call.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (
    AXES,
    GATE_KINDS,
    MEASURE,
    Circuit,
    CircuitOp,
    GateApp,
    GateKind,
    Measure,
    OpTable,
    OracleApp,
    PauliAxis,
    check_op,
    first_outside_fragment,
    op_table,
    violations,
)
from .errors import DegenerateNorm, NonClifford, QsimError, TooManyQubits
from .rng import _workers, in_shot_ranges, shot_uniforms
from .result import _BATCH_BYTES, RunResult, key_words, sample_blocks
from .statevector import PureState

_ONE = np.uint64(1)


class Tableau:
    """A tableau on ``n`` qubits: ``x`` and ``z`` ``(2n, W)`` uint64 bit
    words and ``r`` the ``(2n, F)`` sign forms, held as column views of
    one ``(2n, 2W + F)`` uint64 row block (:attr:`block`), so that a row
    operation gathers, XORs and scatters whole rows once.  Assigning
    ``x``, ``z`` or ``r`` writes the values into the block, so the views
    never drift from it.  The constructor packs copies of its three
    arrays into a new block."""

    __slots__ = ("n", "block", "_x", "_z", "_r")

    def __init__(self, n: int, x: np.ndarray, z: np.ndarray, r: np.ndarray):
        self._hold(n, np.concatenate((x, z, r), axis=1, dtype=np.uint64), x.shape[1])

    def _hold(self, n: int, block: np.ndarray, words: int) -> None:
        self.n, self.block = n, block
        self._x, self._z = block[:, :words], block[:, words : 2 * words]
        self._r = block[:, 2 * words :]

    @classmethod
    def _of(cls, n: int, block: np.ndarray, words: int) -> "Tableau":
        """The tableau whose row block is ``block`` itself."""
        t = cls.__new__(cls)
        t._hold(n, block, words)
        return t

    x = property(lambda t: t._x, lambda t, v: t._x.__setitem__(..., v))
    z = property(lambda t: t._z, lambda t, v: t._z.__setitem__(..., v))
    r = property(lambda t: t._r, lambda t, v: t._r.__setitem__(..., v))

    @property
    def words(self) -> int:
        return self._x.shape[1]

    def copy(self) -> "Tableau":
        return Tableau._of(self.n, self.block.copy(), self.words)

    def __repr__(self) -> str:
        return f"Tableau(n={self.n}, x={self._x!r}, z={self._z!r}, r={self._r!r})"


def init_tableau(n: int, coins: int = 0) -> Tableau:
    """All-zeros state: destabilizers X_i, stabilizers Z_i, signs +, with
    sign forms wide enough for ``coins`` coin variables."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if coins < 0:
        raise ValueError("coins must not be negative")
    words = (n + 63) >> 6
    block = np.zeros((2 * n, 2 * words + (coins >> 6) + 1), dtype=np.uint64)
    rows = np.arange(n)
    bits = _ONE << (rows & 63).astype(np.uint64)
    block[rows, rows >> 6] = bits
    block[n + rows, words + (rows >> 6)] = bits
    return Tableau._of(n, block, words)


# ---------------------------------------------------------------------------
# Gate conjugation on bit columns


_H, _R, _X, _Y, _Z, _I, _CNOT = (GateKind.H, GateKind.R, GateKind.X, GateKind.Y, GateKind.Z,
                                 GateKind.I, GateKind.CNOT)
_PAULIS = {_X: PauliAxis.X, _Y: PauliAxis.Y, _Z: PauliAxis.Z}
_ROW_KINDS = GATE_KINDS + (None, None)  # op codes to gate kinds: None for oracles, measurements
_ROW_AXES = AXES + (None,)  # axis codes to axes: -1, no axis, to None

# Qubit q's bit lies in byte (q >> 3) ^ _BYTE of a row's words seen as
# bytes, at bit q & 7.
_BYTE = 7 if sys.byteorder == "big" else 0

_BLOCK_BYTES = 1 << 20  # bytes of unpacked bits one block of columns holds
_BIT_MASKS = (1 << np.arange(8, dtype=np.uint8))[:, None]  # bit s of a byte, s = 0..7


def _bit_rows(values: list[int], count: int) -> np.ndarray:
    """Bits 0 to ``count - 1`` of each int as a row of 0/1 bytes."""
    size = (count + 7) >> 3
    buf = b"".join(v.to_bytes(size, "little") for v in values)
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(len(values), size),
                         axis=1, count=count, bitorder="little")


class _Gates(NamedTuple):
    """A run of gates as columns, one entry per gate: its kind, its qubit
    (a CNOT's control) and its last target (a CNOT's target, the qubit
    itself for the other gates)."""

    kinds: Sequence[GateKind]
    qs: Sequence[int]
    rs: Sequence[int]


def _apply_gates(t: Tableau, gates: _Gates) -> None:
    """Conjugate every row by ``gates`` in program order, in place.

    ``gates`` holds each gate's kind, its qubit (a CNOT's control) and
    its last target as the columns of a :class:`_Gates`, as
    :func:`_segments` hands a run of them.
    The touched qubits' columns are gathered as ints over the rows
    (``X[q]``, ``Z[q]``, row i at bit i), and each gate applies its
    Aaronson-Gottesman rule to them, XORing its sign flips into one int:
    H flips ``X & Z`` and swaps X and Z; R flips ``X & Z`` and XORs X
    into Z; X, Z and Y flip ``Z``, ``X`` and ``X ^ Z``; a CNOT flips
    ``Xc & Zt & ~(Xt ^ Zc)``, then XORs Xc into Xt and Zt into Zc; the
    identity does nothing.  The changed columns are written back, and the
    flipped rows' sign forms get the constant 1.

    Columns move a block of words at a time, in the rows' words seen as
    bytes (qubit q in byte column ``(q >> 3) ^ _BYTE``, at bit q & 7).  A
    gather copies the block's byte columns out row-major, splits each
    into its 8 bits and packs them along the rows; a write-back spreads
    the changed columns' bits over a zeroed block, folds each 8 back
    into a byte with one weighted sum and XORs the bytes in.
    """
    kinds, qs, rs = gates
    qubits = sorted(set(qs).union(rs))
    if not qubits:
        return
    rows = 2 * t.n
    size = (rows + 7) >> 3
    xb, zb = t.x.view(np.uint8), t.z.view(np.uint8)
    # blocks of qubits in at most ``per`` words (128 unpacked bytes a row
    # each), a new one after a gap of a whole word
    per = max(1, _BLOCK_BYTES // (128 * rows))
    groups: list[list[int]] = []
    for q in qubits:
        w = q >> 6
        if not groups or w > (groups[-1][-1] >> 6) + 1 or w >= (groups[-1][0] >> 6) + per:
            groups.append([])
        groups[-1].append(q)
    blocks = []  # (first byte column, column count, qubits, their X and Z columns)
    X: dict[int, int] = {}
    Z: dict[int, int] = {}
    for group in groups:
        cols = [(q >> 3) ^ _BYTE for q in group]
        first, span = min(cols), max(cols) + 1 - min(cols)
        both = np.empty((2, span, rows), dtype=np.uint8)
        both[0] = xb[:, first : first + span].T
        both[1] = zb[:, first : first + span].T
        buf = memoryview(np.packbits(both[:, :, None, :] & _BIT_MASKS, axis=3,
                                     bitorder="little").tobytes())
        at = [size * (8 * (c - first) + (q & 7)) for q, c in zip(group, cols)]
        half = 8 * span * size
        xs = [int.from_bytes(buf[i : i + size], "little") for i in at]
        zs = [int.from_bytes(buf[half + i : half + i + size], "little") for i in at]
        X.update(zip(group, xs))
        Z.update(zip(group, zs))
        blocks.append((first, span, group, xs, zs))
    flips = 0
    for kind, q, r in zip(kinds, qs, rs):
        if kind is _CNOT:
            xc, zt = X[q], Z[r]
            flips ^= xc & zt & ~(X[r] ^ Z[q])
            X[r] ^= xc
            Z[q] ^= zt
        elif kind is _H:
            x, z = X[q], Z[q]
            flips ^= x & z
            X[q], Z[q] = z, x
        elif kind is _R:
            x = X[q]
            flips ^= x & Z[q]
            Z[q] ^= x
        elif kind is _X:
            flips ^= Z[q]
        elif kind is _Z:
            flips ^= X[q]
        elif kind is _Y:
            flips ^= X[q] ^ Z[q]
    # Each block's changed columns are unpacked together, the last block's
    # with the flipped rows after them.
    for k, (first, span, group, xs, zs) in enumerate(blocks):
        changed: tuple[list, list] = ([], [])  # (byte column, bit, delta) per array
        for q, x, z in zip(group, xs, zs):
            if X[q] != x:
                changed[0].append(((q >> 3) ^ _BYTE, q & 7, X[q] ^ x))
            if Z[q] != z:
                changed[1].append(((q >> 3) ^ _BYTE, q & 7, Z[q] ^ z))
        deltas = [d for cs in changed for _, _, d in cs]
        if k == len(blocks) - 1 and flips:
            deltas.append(flips)
        if not deltas:
            continue
        bits = _bit_rows(deltas, rows)
        j = 0
        for b, cs in zip((xb, zb), changed):
            if len(cs) == 1:  # a lone column: XOR its bits straight in
                (c, s, _), = cs
                b[:, c] ^= bits[j] << s
            elif cs:
                spread = np.zeros((span, 8, rows), dtype=np.uint8)
                spread[[c - first for c, _, _ in cs], [s for _, s, _ in cs]] = (
                    bits[j : j + len(cs)])
                b[:, first : first + span] ^= np.einsum("s,csr->rc", _BIT_MASKS[:, 0], spread)
            j += len(cs)
    if flips:
        t.r[:, 0] ^= bits[-1]


def apply_clifford(t: Tableau, op: CircuitOp) -> None:
    """Conjugate all rows by a Clifford gate, in place.

    Conditioned gates are resolved by :func:`run`; here a condition is
    an error so nothing is silently skipped.  The gate must satisfy the
    circuit rules of :func:`qsim.circuit.validate` on ``t.n`` qubits.
    """
    if isinstance(op, OracleApp):
        raise NonClifford("oracles are outside the stabilizer gate set")
    if isinstance(op, Measure):
        raise ValueError("apply_clifford does not measure; use measure_pauli()")
    if not isinstance(op, GateApp):
        raise TypeError(f"unknown op {op!r}")
    if op.condition is not None:
        raise ValueError("conditioned gate reached apply_clifford; resolve the condition first")
    check_op(op, t.n)
    if not op.kind.is_clifford:
        raise NonClifford(f"{op.kind.value} is outside the stabilizer gate set")
    _apply_gates(t, _Gates((op.kind,), op.targets[:1], op.targets[-1:]))


# ---------------------------------------------------------------------------
# Row products.  A row (x, z) stands for i^|x & z| X^x Z^z, so the row
# product (x1, z1) * (x2, z2) is i^g X^(x1^x2) Z^(z1^z2) times the sign of
# both rows, with g = |x1 & z1| + |x2 & z2| + 2|z1 & x2| - |(x1^x2) & (z1^z2)|
# (Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1); only g mod 4 matters.


@functools.lru_cache(maxsize=None)
def _g_columns(w: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For :func:`_rowsum_many` on rows of ``w`` X words and ``width``
    words in all, side by side with their products: the X columns
    ``[xh | xh | x']``, the Z columns ``[zh | z' | z']`` and their
    weights mod 4, 3, 2 and 3, as uint8."""
    x, z = np.arange(w), np.arange(w, 2 * w)
    return (np.concatenate((x, x, width + x)), np.concatenate((z, width + z, width + z)),
            np.repeat(np.array([3, 2, 3], dtype=np.uint8), w))


def _rowsum_many(t: Tableau, rows: np.ndarray, p: int) -> None:
    """row_h <- row_p * row_h for every h in ``rows`` (vectorized).

    One gather of the rows' block, one XOR with row p and one scatter.
    The new sign is ``(2 r_h + 2 r_p + g) % 4 == 2``: ``r_h ^ r_p``,
    whose constant flips where ``g % 4 == 2``.  Mod 4, ``g`` is
    ``|xh & zh| + 2 |zp & xh| - |x' & z'| + |xp & zp|``, and since
    ``zp = zh ^ z'`` and a popcount's parity is linear over XOR,
    ``2 |zp & xh|`` is ``2 |xh & zh| + 2 |xh & z'|``: so ``g`` is one
    popcount of ``[xh & zh | xh & z' | x' & z']``, read off the gathered
    rows and their products side by side, weighted 3, 2 and 3 (-1 is 3
    mod 4) in uint8, whose wrap-around keeps every sum mod 4, plus row
    p's own ``|xp & zp|``.  ``g`` is odd only for a row that
    anticommutes with row p, and :func:`_collapse`, the one caller,
    passes at most one such row: destabilizer ``p - n``, which it
    overwrites with the old row p right after.  So no sign is set for an
    odd ``g``.
    """
    w, width = t.words, t.block.shape[1]
    xs, zs, weights = _g_columns(w, width)
    pivot = t.block[p]
    h = t.block[rows]
    both = np.concatenate((h, h ^ pivot), axis=1)
    g = np.bitwise_count(both[:, xs] & both[:, zs]) @ weights
    g += np.uint8(np.bitwise_count(pivot[:w] & pivot[w : 2 * w]).sum() & 3)
    both[:, width + 2 * w] ^= (g & 3) == 2
    t.block[rows] = both[:, width:]


# ---------------------------------------------------------------------------
# GF(2) products


_TABLE_WORDS = 1 << 17  # words in one chunk of byte tables (1 MB)
_BLOCK_WORDS = 1 << 15  # output words one table pass reads (256 KB)


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray, rows: np.ndarray | slice) -> None:
    """``out[rows] ^= a[rows] · b`` over GF(2), by the Method of Four
    Russians (Albrecht, Bard & Hart, arXiv:0811.1714).

    ``a`` is a matrix of bytes and ``b`` one of uint64 words: bit i of
    byte c of a row of ``a`` selects row ``8c + i`` of ``b`` (rows past
    its end are zero), whose words are XORed in as they are, so ``b``'s
    bit order is ``out``'s.  Every group of 8 rows of ``b`` that is not
    all zero gets a table: for each of the 256 byte values, the XOR of the
    rows set in it, so a row of ``out`` XORs one row of each table.  The
    groups are taken a chunk at a time, its tables at most
    ``_TABLE_WORDS`` words.  A chunk's tables are read by one contiguous
    range of ``rows`` per usable core, in threads started and joined here
    (:func:`qsim.rng.in_shot_ranges`), ``_BLOCK_WORDS`` words of ``out``
    at a time; each range writes only its own rows, so ``out`` does not
    depend on the number of threads.  ``rows`` is a slice, whose blocks
    are XORed in place, or ascending row indices.
    """
    kw = b.shape[1]
    if isinstance(rows, slice):
        first, last, _ = rows.indices(len(out))
        count = last - first
        at = lambda s, e: slice(first + s, first + e)
    else:
        count = len(rows)
        at = lambda s, e: rows[s:e]
    per, step = max(1, _TABLE_WORDS // (256 * kw)), max(1, _BLOCK_WORDS // kw)
    groups = min(a.shape[1], (len(b) + 7) >> 3)
    for lo in range(0, groups, per):
        hi = min(lo + per, groups)
        cols = np.zeros((hi - lo, 8, kw), dtype=np.uint64)
        piece = b[8 * lo : 8 * hi]
        cols.reshape(-1, kw)[: len(piece)] = piece
        live = cols.reshape(hi - lo, -1).any(axis=1).nonzero()[0]
        if not len(live):
            continue
        cols = cols[live]
        tables = np.zeros((len(live), 256, kw), dtype=np.uint64)
        for i in range(8):
            np.bitwise_xor(tables[:, : 1 << i], cols[:, i, None], out=tables[:, 1 << i : 2 << i])
        reads = list(zip(live.tolist(), tables))

        def read(begin: int, end: int) -> None:
            for s in range(begin, end, step):
                r = at(s, min(s + step, end))
                c, o = a[r, lo:hi], out[r]
                for g, table in reads:
                    o ^= table[c[:, g]]
                if not isinstance(r, slice):
                    out[r] = o

        in_shot_ranges(read, count, _workers(count, count * len(live) * kw))


# ---------------------------------------------------------------------------
# Measurement


def _anticommuting(t: Tableau, meas: Sequence[tuple], rows: slice = slice(None)) -> np.ndarray:
    """Which of the tableau's ``rows`` (all 2n by default) anticommute with
    each measured Pauli, ``(qubit, axis, ...)`` rows, as a ``(rows, J)``
    bool matrix: a row anticommutes with X_q where its z bit is set, with
    Z_q where its x bit is, and with Y_q where they differ.

    Several Paulis are one gather of the X and Z byte columns their
    qubits lie in.  One Pauli reads its word column instead, in well
    under half the gather's time.
    """
    if len(meas) == 1:
        q, axis = meas[0][0], meas[0][1]
        w = q >> 6
        if axis is PauliAxis.Z:
            col = t.x[rows, w]
        elif axis is PauliAxis.X:
            col = t.z[rows, w]
        else:
            col = t.x[rows, w] ^ t.z[rows, w]
        return (col & (1 << (q & 63))).astype(bool)[:, None]
    cols, x_bits, z_bits = [], [], []
    for q, axis, *_ in meas:
        bit = 1 << (q & 7)
        cols.append((q >> 3) ^ _BYTE)
        x_bits.append(0 if axis is PauliAxis.X else bit)  # Z and Y read the x bit
        z_bits.append(0 if axis is PauliAxis.Z else bit)  # X and Y the z bit
    z_at = 8 * t.words  # the z words' first byte in a row of the block
    both = t.block.view(np.uint8)[rows, cols + [z_at + c for c in cols]]
    both &= np.array(x_bits + z_bits, dtype=np.uint8)
    return both[:, : len(cols)] != both[:, len(cols) :]


def _collapse(t: Tableau, q: int, axis: PauliAxis, rows: np.ndarray, k: int,
              bit: int = 1) -> np.ndarray:
    """A random measurement of the Pauli ``axis`` on qubit q, whose
    :func:`_anticommuting` column flags ``rows``, ascending, some of them
    stabilizers.

    The first flagged stabilizer, row p, multiplies onto every other
    flagged row (:func:`_rowsum_many`), moves to its destabilizer as one
    row copy, and takes the measured Pauli as its row.  Returns the
    outcome's form: ``bit`` times variable ``k``, a run's k-th coin, or
    the constant bit ``bit`` for k = 0.
    """
    n, w, block = t.n, t.words, t.block
    p = int(rows[rows.searchsorted(n)])
    rows = rows[rows != p]
    if rows.size:
        _rowsum_many(t, rows, p)
    block[p - n] = block[p]
    block[p] = 0
    at, b = q >> 6, _ONE << np.uint64(q & 63)
    if axis is not PauliAxis.Z:
        block[p, at] = b
    if axis is not PauliAxis.X:
        block[p, w + at] = b
    block[p, 2 * w + (k >> 6)] = bit << (k & 63)
    return t.r[p].copy()


def _measure_axis(t: Tableau, q: int, axis: PauliAxis, k: int, bit: int = 1):
    """Measure the Pauli ``axis`` on qubit q.

    Returns ``(outcome, random)``: the outcome's form (value 0 records
    the +1 outcome) and whether it was a fair coin, a random outcome
    being :func:`_collapse`'s.
    """
    rows = _anticommuting(t, [(q, axis)])[:, 0].nonzero()[0]
    if rows[-1] >= t.n:
        return _collapse(t, q, axis, rows, k, bit), True
    return _determined(t, [(q, axis)])[0], False


def _determined(t: Tableau, meas: list[tuple[int, PauliAxis]]) -> np.ndarray:
    """The outcome forms of determined measurements ``meas``, ``(qubit,
    axis)`` pairs that no stabilizer anticommutes with, as ``(J, F)``.

    Such a measurement leaves the tableau as it is, so a run of them reads
    one tableau: each outcome is the sign of the product of the stabilizer
    rows its destabilizers flag (:func:`_anticommuting`).  Let U be the
    stabilizer rows that some measurement flags and D the ``J x |U|``
    flags.  The forms are ``D R_U``, R_U being the rows' forms, with the
    product's phase on the constant.  A row (x, z) stands for
    i^|x & z| X^x Z^z, so multiplying the flagged rows in order, the
    exponent of i is ``g = D |x & z| + 2 diag(D L D^T) - [axis is Y]``, L
    being the strictly lower-triangular part of ``Z_U X_U^T`` mod 2 (row
    k's Z bits against the X bits of each row l before it), since the
    product of the flagged rows is the measured Pauli, whose |x & z| is 1
    for Y only.  The rows commute, so g is even, and the constant flips
    where g / 2 is odd.

    Write ``|x & z|`` as ``w0 + 2 w1`` mod 4.  The s flagged rows with w0
    set make ``s - [axis is Y]`` even, and mod 4 it is twice the parity
    of their s(s - 1)/2 pairs.  So g / 2 is, mod 2, the parity of D AND
    ``w1 + D L'^T``, L'^T being the strict upper triangle of
    ``M = X_U Z_U^T + w0 w0^T``: no weight is summed on its own, and the
    axis drops out.  That is three :func:`_product` calls, ``D R_U``, M and
    ``D L'^T``, and one popcount.  M and the phase are skipped when no
    qubit carries both an X and a Z bit in U, as for GHZ measured in Z or
    X, since every |x & z| and M are zero then.  D and ``Z_U^T`` are
    built ``_BLOCK_BYTES`` of unpacked bits at a time.
    """
    n, w, count = t.n, t.words, len(meas)
    step = max(1, _BLOCK_BYTES // n)
    flags = np.empty((count, (n + 7) >> 3), dtype=np.uint8)  # destabilizer i at bit i
    for j in range(0, count, step):
        flags[j : j + step] = np.packbits(_anticommuting(t, meas[j : j + step], slice(n)),
                                          axis=0, bitorder="little").T
    used = np.unpackbits(np.bitwise_or.reduce(flags, axis=0), count=n,
                         bitorder="little").nonzero()[0]
    u, uw = len(used), (len(used) + 63) >> 6
    d = np.zeros((count, 8 * uw), dtype=np.uint8)  # D, packed along U into whole words
    for j in range(0, count, step):
        d[j : j + step, : (u + 7) >> 3] = np.packbits(
            np.unpackbits(flags[j : j + step], axis=1, count=n, bitorder="little")[:, used],
            axis=1, bitorder="little")
    del flags  # freed before the products, which set the peak
    h = t.block[n + used]
    r = h[:, 2 * w :]
    top = r.shape[1] - int(r.any(axis=0)[::-1].argmax())  # words past the last live one are 0
    forms = np.zeros((count, t.r.shape[1]), dtype=np.uint64)
    _product(d, r[:, :top], forms[:, :top], slice(count))
    ors = np.bitwise_or.reduce(h[:, : 2 * w], axis=0)
    both = (ors[:w] & ors[w:]).astype("<u8", copy=False).view(np.uint8).nonzero()[0]
    if len(both):
        x, z = h[:, :w], h[:, w : 2 * w]
        weight = np.bitwise_count(x & z).sum(axis=1)  # |x & z|
        # qubit q at bit q & 7 of byte q >> 3
        xb, zb = (a.astype("<u8", copy=False).view(np.uint8) for a in (x, z))
        zt = np.zeros((8 * len(both), 8 * uw), dtype=np.uint8)  # Z_U^T on those bytes' qubits
        per = max(1, _BLOCK_BYTES // (8 * u))
        for c in range(0, len(both), per):
            bits = np.unpackbits(zb[:, both[c : c + per]], axis=1, bitorder="little")
            zt[8 * c : 8 * (c + per), : (u + 7) >> 3] = np.packbits(bits.T, axis=1,
                                                                   bitorder="little")
        m = np.zeros((u, uw), dtype=np.uint64)
        _product(xb[:, both], zt.view("<u8").astype(np.uint64, copy=False), m, slice(u))
        del zt
        planes = np.zeros((2, 8 * uw), dtype=np.uint8)  # w0 and w1 over U
        planes[:, : (u + 7) >> 3] = np.packbits([weight & 1, (weight >> 1) & 1], axis=1,
                                                bitorder="little")
        low, high = planes.view("<u8").astype(np.uint64, copy=False)
        m[(weight & 1).nonzero()[0]] ^= low
        k = np.arange(u)
        m[np.arange(uw) < (k >> 6)[:, None]] = 0  # L'^T: bits k > l of row l
        m[k, k >> 6] &= ~((np.uint64(2) << (k & 63).astype(np.uint64)) - _ONE)
        pairs = np.tile(high, (count, 1))
        _product(d, m, pairs, slice(count))
        dw = d.view("<u8").astype(np.uint64, copy=False)
        forms[:, 0] ^= np.bitwise_count(dw & pairs).sum(axis=1) & 1
    return forms


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

    ``p_plus`` is exactly 0, 1/2, or 1.  A measurement consumes one draw
    from ``rng``, used when the outcome is random; ``force_bit`` pins it
    instead (useful for cross-backend trajectory matching).  Forcing a
    determined measurement against its value raises
    :class:`DegenerateNorm`.  The signs must be constant (see
    :func:`_require_constant`).
    """
    _require_constant(t, "measure_pauli")
    if not 0 <= qubit < t.n:
        raise ValueError(f"qubit q{qubit} out of range")
    if force_bit not in (None, 0, 1):
        raise ValueError(f"force_bit must be 0 or 1, got {force_bit!r}")
    bit = force_bit
    if bit is None:
        if rng is None:
            raise ValueError("need rng (or force_bit)")
        bit = int(rng.random() >= 0.5)  # u < 1/2 means +1
    outcome, random = _measure_axis(t, qubit, axis, 0, bit)
    got = int(outcome[0])
    if force_bit is not None and got != force_bit:
        raise DegenerateNorm("forced outcome has probability zero")
    return TableauMeasurement(1 - 2 * got, 0.5 if random else float(got == 0))


def _require_constant(t: Tableau, caller: str) -> None:
    """The single-tableau API reads a sign as a bit, so every form must
    be constant: a tableau from :func:`run` with coin variables is not
    one state but one per coin pattern."""
    if t.r[:, 1:].any() or (t.r[:, 0] > _ONE).any():
        raise ValueError(f"{caller} needs constant signs; run() evaluates coin forms")


# ---------------------------------------------------------------------------
# Whole-circuit sampling


# A group of shots sharing one structural tableau: the tableau, the
# forms of the classical bits as an (n_cbits, F) matrix, and the shots'
# indices.
_Group = tuple[Tableau, np.ndarray, np.ndarray]


def _write_keys(forms: np.ndarray, coins: np.ndarray, rows: np.ndarray, keys: np.ndarray) -> None:
    """Write ``forms`` evaluated at the coins of shots ``rows`` into ``keys[rows]``.

    ``forms`` is ``(m, F)``, ``coins`` the block's ``(shots, coin_bytes)``
    coin bytes (``qsim.rng.shot_uniforms(..., coins=True)``) and ``keys`` its
    ``(shots, ceil(m / 64))`` key words, form j at key bit j.  A shot's
    key is the constants' column XOR the key column of every coin it drew
    as 1: the shots' coin bytes times the coins' key columns, one
    :func:`_product` per chunk of coin bytes whose tables fill
    ``_TABLE_WORDS``.  Each chunk reads only the form words that hold its
    coins (shifted down one bit, coin k at bit k) and builds key columns
    only for the coin bytes some form reads, so beyond the forms
    themselves the readout holds bounded pieces, whatever the number of
    forms, coins and shots.  ``rows`` ascend; when they are every shot
    from the first to the last, as for a run that never split, they are
    passed as a slice, whose keys are XORed in place.
    """
    if not len(forms) or not len(rows):
        return
    start = int(rows[0])
    if int(rows[-1]) - start == len(rows) - 1:
        rows = slice(start, start + len(rows))
    keys[rows] = key_words(forms[:, :1] & _ONE)[0]
    kw = keys.shape[1]
    per = max(1, _TABLE_WORDS // (256 * kw))
    for lo in range(0, coins.shape[1], per):
        hi = min(lo + per, coins.shape[1])
        words = forms[:, lo >> 3 : (hi >> 3) + 1]  # variable 64 * (lo >> 3) at bit 0
        shifted = words >> _ONE
        shifted[:, :-1] |= words[:, 1:] << np.uint64(63)
        part = shifted.astype("<u8", copy=False).view(np.uint8)[:, lo & 7 : (lo & 7) + hi - lo]
        live = part.any(axis=0).nonzero()[0]  # coin bytes some form reads
        cols = np.zeros((hi - lo, 8, kw), dtype=np.uint64)
        cols[live] = key_words(np.unpackbits(part[:, live], axis=1,
                                             bitorder="little")).reshape(len(live), 8, kw)
        _product(coins[:, lo:hi], cols.reshape(-1, kw), keys, rows)


def _values(forms: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """``forms`` evaluated at each row of coin bytes, as ``(shots, m)`` bits:
    a form's constant XOR the parity of its coin bits (shifted down one,
    coin k at bit k, as :func:`_write_keys` reads them) AND the coins."""
    words = forms >> _ONE
    words[:, :-1] |= forms[:, 1:] << np.uint64(63)
    reads = words.astype("<u8", copy=False).view(np.uint8)[:, : coins.shape[1]]
    acc = np.zeros((len(coins), len(forms)), dtype=np.uint8)
    for b in np.flatnonzero(reads.any(axis=0)).tolist():
        acc ^= coins[:, b, None] & reads[:, b]
    return (np.bitwise_count(acc) & 1) ^ (forms[:, 0] & _ONE).astype(np.uint8)


def _step(groups: list[_Group], gate: _Gates, condition: int, coins: np.ndarray) -> list[_Group]:
    """Apply the one gate ``gate``, conditioned on bit ``condition``, to
    every group as :func:`run` describes; returns the groups after it.
    A conditioned X, Y or Z flips exactly the rows that anticommute with
    it (:func:`_anticommuting`), so it XORs its condition's form into
    their sign forms.  A conditioned H, R or CNOT evaluates its condition
    at its block's coin bytes, ``coins``; nothing else reads them.
    A conditioned identity does nothing."""
    kind = gate.kinds[0]
    if kind in _PAULIS:
        pauli = [(gate.qs[0], _PAULIS[kind])]
        for t, cb, _ in groups:
            t.r[_anticommuting(t, pauli)[:, 0].nonzero()[0]] ^= cb[condition]
        return groups
    if kind is _I:
        return groups
    split: list[_Group] = []
    for t, cb, idx in groups:
        mask = _values(cb[condition, None], coins[idx])[:, 0] == 1
        if mask.all():
            _apply_gates(t, gate)
            split.append((t, cb, idx))
        elif not mask.any():
            split.append((t, cb, idx))
        else:
            hot = t.copy()
            _apply_gates(hot, gate)
            split.append((hot, cb.copy(), idx[mask]))
            split.append((t, cb, idx[~mask]))
    return split


def _measure_run(t: Tableau, cb: np.ndarray, meas: list[tuple[int, PauliAxis, int]],
                 k: int) -> None:
    """Measure ``meas``, consecutive ``(qubit, axis, dest)`` rows with no
    gate between them, on one group's tableau, the j-th with coin
    ``k + j + 1``, and write their outcomes' forms into the bits ``cb``.

    A window of them is classified from one :func:`_anticommuting` read:
    those before the first random one leave the tableau as it is, and
    their outcomes wait, each bit for the last ``(qubit, axis)`` written
    to it; the random one is collapsed.  The waiting outcomes are
    answered by one :func:`_determined` call when the run ends, or before
    a collapse of a qubit the run has measured since the last answer,
    whose Pauli there the collapse takes out of the group; a waiting
    outcome whose bit the random outcome overwrites is dropped.  The
    window starts after it with one row, and doubles after a window of
    determined ones, up to ``_BLOCK_BYTES`` of gathered bytes, so a long
    determined run is a few gathers and a run of random ones gathers no
    column twice.
    """
    n = t.n
    waiting: dict[int, tuple[int, PauliAxis]] = {}
    qubits: set[int] = set()  # measured since the last answer

    def answer() -> None:
        if waiting:
            cb[list(waiting)] = _determined(t, list(waiting.values()))
            waiting.clear()
        qubits.clear()

    j, width, most = 0, 1, max(1, _BLOCK_BYTES // (2 * n))
    while j < len(meas):
        window = meas[j : j + width]
        hits = _anticommuting(t, window)
        random = hits[n:].any(axis=0).nonzero()[0]
        r = int(random[0]) if len(random) else len(window)
        for q, axis, dest in window[:r]:
            waiting[dest] = (q, axis)
            qubits.add(q)
        if r == len(window):
            j += r
            width = min(2 * width, most)
            continue
        q, axis, dest = window[r]
        if q in qubits:
            answer()
        waiting.pop(dest, None)
        cb[dest] = _collapse(t, q, axis, hits[:, r].nonzero()[0], k + j + r + 1)
        j += r + 1
        width = 1
    answer()


_Barrier = list[tuple[int, PauliAxis, int]] | tuple[_Gates, int] | None


def _segments(table: OpTable) -> list[tuple[_Gates, _Barrier]]:
    """A valid Clifford circuit's ops, read off its table, as runs of
    unconditioned gates, column slices for :func:`_apply_gates`, each
    closed by the barrier after it: a run of consecutive measurements as
    ``(qubit, axis, dest)`` rows, a conditioned gate as a one-gate
    :class:`_Gates` and its condition bit, or None after the last run.
    A measurement right after another joins its run, so two runs of
    measurements are never next to each other."""
    kind, cond, start, targets = table.kind, table.cond, table.start, table.targets
    meas = kind == MEASURE
    heads = ((meas | (cond >= 0)) & ~(meas & np.r_[False, meas[:-1]])).nonzero()[0]
    others = (~meas).nonzero()[0]
    ends = np.where(meas[heads], np.append(others, len(kind))[np.searchsorted(others, heads)],
                    heads + 1)
    kinds = list(map(_ROW_KINDS.__getitem__, kind.tolist()))
    qs = targets[start[:-1]].tolist()
    rs = targets[start[1:] - 1].tolist()  # a CNOT's target, the qubit of other ops
    axes = list(map(_ROW_AXES.__getitem__, table.axis.tolist()))
    dests, conds = table.dest.tolist(), cond.tolist()
    out: list[tuple[_Gates, _Barrier]] = []
    at = 0
    for h, e in zip(heads.tolist(), ends.tolist()):
        if meas[h]:
            barrier: _Barrier = list(zip(qs[h:e], axes[h:e], dests[h:e]))
        else:
            barrier = (_Gates(kinds[h:e], qs[h:e], rs[h:e]), conds[h])
        out.append((_Gates(kinds[at:h], qs[at:h], rs[at:h]), barrier))
        at = e
    out.append((_Gates(kinds[at:], qs[at:], rs[at:]), None))
    return out


def run(circuit: Circuit, shots: int, seed: int, keep_final_state: bool = False) -> RunResult:
    """Sample ``shots`` executions of a Clifford/measurement circuit.

    One pass over the circuit per block of shots keeps every sign and
    classical bit as a form over the coins.  Unconditioned gates
    between two barriers are applied together on bit columns
    (:func:`_apply_gates`).  Each group measures a run of consecutive
    measurements in one call (:func:`_measure_run`): a random one updates
    the rows at once (:func:`_collapse`), and a determined one waits to
    be answered with the others of its run, which the call does before
    it returns.  A classically conditioned gate is one step
    (:func:`_step`): an X, Y or Z XORs its condition's form into the
    signs it flips, an identity does nothing, and an H, R or CNOT splits
    the shots into groups by the condition's value, since shots that
    took different branches no longer share structure.  Shot ``i``
    draws from its own Philox counter block exactly as in the dense
    backend.  A block of the shots whose coins and keys fit ``_BATCH_BYTES``
    (:func:`qsim.result.sample_blocks`) draws its coins, packed eight to a
    byte, makes the pass, and writes each group's outcomes as one GF(2)
    product over them (:func:`_write_keys`).  ``keep_final_state``
    returns the tableau of shot ``shots - 1``, read in the last block.

    The circuit is read off its op table (:func:`qsim.circuit.op_table`),
    so a parsed circuit runs without one op object being built.
    """
    table = op_table(circuit)
    outside = first_outside_fragment(table)
    if outside is not None:
        raise NonClifford(f"op {outside} is outside the stabilizer fragment", outside)
    bad = violations(circuit)
    if bad:
        raise ValueError(f"invalid circuit: op {bad[0].op_index}: {bad[0].message}")
    if shots < 1:
        raise ValueError("shots must be positive")

    n, m = circuit.n_qubits, circuit.n_cbits
    n_meas = int(np.count_nonzero(table.kind == MEASURE))
    segments = _segments(table)
    final: Tableau | None = None

    def block(first: int, count: int) -> tuple[np.ndarray, None]:
        nonlocal final
        coins = shot_uniforms(seed, count, n_meas, first_shot=first, coins=True)
        cb = np.zeros((m, (n_meas >> 6) + 1), dtype=np.uint64)
        groups: list[_Group] = [(init_tableau(n, n_meas), cb, np.arange(count))]
        k = 0
        for gates, barrier in segments:
            if gates.kinds:
                for t, _, _ in groups:
                    _apply_gates(t, gates)
            if isinstance(barrier, list):
                for t, cb, _ in groups:
                    _measure_run(t, cb, barrier, k)
                k += len(barrier)
            elif barrier is not None:
                groups = _step(groups, *barrier, coins)
        if keep_final_state and first + count == shots:
            t, _, _ = next(g for g in groups if g[2][-1] == count - 1)
            final = Tableau(n, t.x, t.z, _values(t.r, coins[-1:]).T.astype(np.uint64))
        keys = np.empty((count, (m + 63) >> 6), dtype=np.uint64)
        for _, cb, idx in groups:
            _write_keys(cb, coins, idx, keys)
        return keys, None

    per_shot = max(1, ((n_meas + 7) >> 3) + 8 * ((m + 63) >> 6))  # coin bytes and key words
    return sample_blocks("stab", shots, seed, m, max(1, _BATCH_BYTES // per_shot), block,
                         lambda: final)


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
    _require_constant(t, "to_statevector")
    n = t.n
    if n > 20:
        raise TooManyQubits(f"{n} qubits exceeds the dense reconstruction limit of 20")
    probe = t.copy()
    bits = []
    for q in range(n):
        b, _ = _measure_axis(probe, q, PauliAxis.Z, 0, 0)
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
