"""Dense state-vector backend.

States are full vectors of 2^n complex amplitudes (n <= 24).  Gates and
measurements work in place on strided views that split the amplitudes
into the two halves of one qubit's pairs: diagonal gates scale one half,
X and Y swap the halves, and a Z measurement rescales one half and zeroes
the other.  Nothing ever materializes a 2^n x 2^n matrix; the matrix
forms in :mod:`qsim.circuit` exist for unit tests only.

The kernels are memory-bound, so each makes as few passes as exact
arithmetic allows, and each keeps every nonzero amplitude and every
``p_plus`` bit for bit against the full 2x2 formulas:

- H forms ``t = u01 a1`` once, then ``a1 = u00 a0 - t`` and
  ``a0 = u00 a0 + t``: ``u10 = u00``, ``u11 = -u01``, and
  ``(-s) x = -(s x)``.
- An X or Y expectation leaves out the diagonal term
  ``o00 n0 + o11 n1``, which is +0 and changes no bit.
- An X or Y collapse forms ``a0 = (a0 + s o01 a1) r`` and
  ``a1 = s o10 a0`` with ``r = 1/(2 sqrt(p))``: products with +-1 and
  +-i are exact, ``o01 o10 = 1``, and numpy divides by ``c + 0j`` as a
  multiply by ``1/c``.

Measurement observables are single-qubit spin directions: a Pauli axis,
or an arbitrary Bloch axis (theta, phi) meaning

    O = cos(theta) Z + sin(theta) cos(phi) X + sin(theta) sin(phi) Y.

The +1 outcome has probability ``p_plus = (1 + <O>)/2``; a sample never
draws a branch weighing less than 1e-12 (the dust), and collapse
projects onto the outcome's eigenspace and renormalizes, zeroing
amplitude dust below 1e-12.  (Computing ``p_plus`` from the expectation
rather than a projected norm lets symmetric cases like ``<Z> = 0``
cancel exactly in floating point.)

Joint outcome tables (:func:`joint_probabilities`, and every table of
the locality lab) walk the tree of sequential projections one level at
a time.  Each row of the batch is one (setting prefix, outcome prefix)
branch, so all setting profiles of a table take one walk, and every
branch weight is bit-identical to what a recursive walk over
:func:`project` gives it.

``run`` samples whole circuits.  It evolves one amplitude row per
distinct classical history rather than one per shot, over the qubits
that need amplitudes; :class:`_Histories` describes the rows and the
qubits they leave out.  Shot ``i`` draws its measurement randomness from
the Philox counter block reserved for shot ``i`` (see :mod:`qsim.rng`),
so a fixed seed gives the same counts, whatever the batch.  Histogram
keys are classical-bit strings, bit 0 first, with ``0`` recording the +1
outcome.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

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
    OracleApp,
    PauliAxis,
    gate_matrix,
    op_table,
    validate,  # unused here; perfbench's tracer self-test checks this binding
    violations,
)
from .errors import TooManyQubits
from .result import _BATCH_BYTES, RunResult, key_words, sample_blocks
from .rng import shot_uniforms

MAX_QUBITS = 24

_DUST = 1e-12


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


# Each one-qubit gate's matrix as Python complex numbers (u00, u01, u10,
# u11): reading them costs less than indexing an array, and they round in a
# product exactly as the array's entries do.
_ENTRIES = {kind: tuple(gate_matrix(kind).ravel().tolist()) for kind in GateKind
            if kind.arity == 1}


def _apply_1q(amps: np.ndarray, n: int, q: int, u: tuple) -> None:
    # Dropping a term whose coefficient is 0, or a factor that is 1, leaves
    # every nonzero amplitude bit-identical to the full 2x2 product.
    v = _split(amps, n, q)
    a0, a1 = v[..., 0, :], v[..., 1, :]
    u00, u01, u10, u11 = u
    if u01 == 0 and u10 == 0:  # I, Z, R, S: scale the halves that change
        for a, d in ((a0, u00), (a1, u11)):
            if d != 1:
                _scale(a, d)
    elif u00 == 0 and u11 == 0:  # X, Y: swap the halves, with their phase
        b0 = u01 * a1
        np.multiply(u10, a0, out=a1)
        a0[...] = b0
    else:  # H: u10 = u00 and u11 = -u01, and (-s) x = -(s x), so a1 = u00 a0 - u01 a1
        t = u01 * a1
        _scale(a0, u00)
        np.subtract(a0, t, out=a1)
        a0 += t


def _scale_half(amps: np.ndarray, n: int, q: int, b: int, d) -> None:
    """Scale qubit q's half ``b`` by ``d``."""
    _scale(_split(amps, n, q)[..., b, :], d)


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


# Inputs of an oracle fixed by plain indices: up to 2**3 table rows are
# visited one by one, and index arrays pick each row's slabs over the rest.
_ORACLE_PLAIN_INPUTS = 3


def _apply_oracle(amps: np.ndarray, n: int, op: OracleApp) -> None:
    """XOR f(inputs) into the output: swap the output qubit's halves
    inside every input slab where f(x) = 1.

    The view gives each qubit the oracle touches an axis of its own.  The
    truth table is read as rows over the first inputs, which plain
    indices fix; index arrays over the remaining inputs pick every slab of
    a row where f(x) = 1 at once.  A small oracle thus swaps plain strided
    views, and a large one takes at most eight fancy-indexing passes."""
    qubits = sorted(op.inputs + (op.output,))
    shape, prev = [], 0
    for q in qubits:
        shape += [1 << (q - prev), 2]
        prev = q + 1
    v = amps.reshape(amps.shape[:-1] + tuple(shape) + (1 << (n - prev),))
    k = len(op.inputs)
    axes = [2 * qubits.index(q) + 1 for q in op.inputs]  # among v's trailing axes
    out = 2 * qubits.index(op.output) + 1
    b = max(0, k - _ORACLE_PLAIN_INPUTS)  # inputs picked by index arrays
    idx = [Ellipsis] + [slice(None)] * (len(shape) + 1)
    table = op.function.table
    for p in range(0, len(table), 1 << b):
        row = table[p : p + (1 << b)]
        if not any(row):
            continue
        x = np.flatnonzero(row) if b else None
        for j, ax in enumerate(axes):  # first input is the top bit of the table index
            idx[1 + ax] = (p >> (k - 1 - j)) & 1 if j < k - b else (x >> (k - 1 - j)) & 1
        idx[1 + out] = 0
        i0 = tuple(idx)
        idx[1 + out] = 1
        i1 = tuple(idx)
        half0 = v[i0].copy()
        v[i0] = v[i1]
        v[i1] = half0


def evolve(circuit: Circuit, start: PureState | None = None) -> PureState:
    """Run a measurement-free, unconditioned circuit and return the state.

    ``start`` is copied once and never mutated.
    """
    bad = violations(circuit)
    if bad:
        raise ValueError(f"invalid circuit: {bad[0].message}")
    state = start if start is not None else init_state(circuit.n_qubits)
    amps = state.amps.copy()
    for op in circuit.ops:
        if isinstance(op, Measure) or (isinstance(op, GateApp) and op.condition is not None):
            raise ValueError("evolve handles gate-only circuits; use run() for measurements")
        if isinstance(op, OracleApp):
            _apply_oracle(amps, state.n, op)
        elif op.kind is GateKind.CNOT:
            _apply_cnot(amps, state.n, *op.targets)
        else:
            _apply_1q(amps, state.n, op.targets[0], _ENTRIES[op.kind])
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


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row of the 2-D temporary ``x`` (overwritten) summed term by term
    in index order.  Up to four rows, an in-place ``cumsum`` adds each row
    in order (``sum`` would add a lone row pairwise, and is slower on two to
    four).  Above that, ``sum`` adds Fortran-ordered rows in order, faster
    than a ``cumsum`` along their strided rows."""
    if len(x) <= 4:
        return np.cumsum(x, axis=-1, out=x)[:, -1]
    return np.asfortranarray(x).sum(axis=-1)


def _expectation(
    amps: np.ndarray, n: int, q: int, obs: np.ndarray, order: str = "F"
) -> np.ndarray:
    """<O> on qubit q; summed per pair first, in basis-index order, so
    symmetric terms cancel exactly."""
    v = _split(amps, n, q)
    a0, a1 = v[..., 0, :], v[..., 1, :]
    # ``order="F"`` sums each row of a batch in order (``_row_sums``), so a
    # row's ``p_plus`` in ``run`` does not depend on the rows beside it, and
    # zero pairs left out of it change no bit.  A 1-D state, and every row
    # in ``order="C"``, is summed pairwise.
    per_pair = np.empty(amps.shape[:-1] + (1 << (n - 1),), order=order)
    out = per_pair.reshape(a0.shape)
    # Each pair's term is o00 n0 + o11 n1 + 2 Re(conj(a0) a1 o01), added in
    # that order; the off-diagonal product stays out of place, as numpy's
    # complex product may round differently written over an operand.
    if _is_z(obs):
        np.subtract(_norms(a0), _norms(a1), out=out)
    elif obs[0, 0] == 0:  # X, Y: the diagonal term is +0, which changes no bit
        np.multiply(2.0, (np.conj(a0) * a1 * obs[0, 1]).real, out=out)
    else:
        np.multiply(obs[0, 0].real, _norms(a0), out=out)
        out += obs[1, 1].real * _norms(a1)
        out += 2.0 * (np.conj(a0) * a1 * obs[0, 1]).real
    return _row_sums(per_pair) if order == "F" and per_pair.ndim == 2 else per_pair.sum(axis=-1)


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
    elif obs[0, 0] == 0:
        # X (o01 = o10 = 1) or Y (o01 = -i, o10 = i): no Bloch axis has
        # cos(theta) exactly 0.  Products with +-1 and +-i are exact and
        # o01 o10 = 1, so the general formula's a1 is s o10 times its a0,
        # bit for bit, and its division by 2 sqrt(p) a multiply by r.
        r = 1.0 / (2.0 * root)
        a0 += (s * obs[0, 1]) * a1
        a0 *= r
        np.multiply(s * obs[1, 0], a0, out=a1)
    else:
        # a = (a + s t) / scale for each half.  a0 is written once t1 has
        # read it, and t0 is freed before t1's second product, so at most
        # two halves of temporaries are live.
        scale = 2.0 * root
        t0 = obs[0, 0] * a0
        t0 += obs[0, 1] * a1
        t1 = obs[1, 0] * a0
        t0 *= s
        a0 += t0
        a0 /= scale
        del t0
        t1 += obs[1, 1] * a1
        t1 *= s
        a1 += t1
        a1 /= scale
    _dust(amps)


def _dust(amps: np.ndarray) -> None:
    np.copyto(amps, 0.0, where=np.abs(amps) < _DUST)


def _cut(p_plus):
    """The uniform below which a draw gives +1: ``p_plus``, except that a
    branch weighing less than the dust is never drawn, whatever the uniform."""
    return np.where(p_plus < _DUST, 0.0, np.where(1.0 - p_plus < _DUST, np.inf, p_plus))


def project(state: PureState, spec: MeasurementSpec, outcome: int) -> tuple[float, PureState | None]:
    """Probability of ``outcome`` (+1/-1) and the collapsed state.

    The collapsed state is ``None`` when the branch weight is below the
    degeneracy threshold.
    """
    if not 0 <= spec.qubit < state.n:
        raise ValueError(f"qubit q{spec.qubit} out of range")
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    obs = _observable(spec.axis)
    e = float(_expectation(state.amps, state.n, spec.qubit, obs))
    p = min(max(0.5 * (1.0 + outcome * e), 0.0), 1.0)
    if p < _DUST:
        return p, None
    amps = state.amps.copy()
    _collapse(amps, state.n, spec.qubit, obs, outcome, p)
    return p, PureState(state.n, amps)


def _walk(amps: np.ndarray, n: int, levels: list, w: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Weights of every branch below the rows of one level of the walk.

    ``w`` holds every row's weight and ``live`` the rows still carrying a
    state, whose amplitudes are the rows of ``amps``.  ``levels[0]`` is
    the qubit measured next and its observables.  A level's child rows
    are laid out as (setting, outcome, parent row), outcome +1 first, and
    the result has one column per row of ``w`` and one row per leaf below
    it, the last level's axes slowest.  Rows never interact, so every
    branch is computed as if it were measured on its own.
    """
    q, observables = levels[0]
    rows = len(w)
    if len(levels) > 1 and len(live) > 1 and 2 * len(observables) * amps.nbytes > _BATCH_BYTES:
        m = len(live) // 2  # the children would not fit: walk each half of the parents
        cut = int(live[m])
        return np.concatenate(
            (
                _walk(amps[:m], n, levels, w[:cut], live[:m]),
                _walk(amps[m:], n, levels, w[cut:], live[m:] - cut),
            ),
            axis=1,
        )
    blocks, kept = [], []
    for obs in observables:
        e = _expectation(amps, n, q, obs, order="C")
        for outcome in (1, -1):
            p = np.clip(0.5 * (1.0 + outcome * e), 0.0, 1.0)
            wb = np.zeros(rows)
            wb[live] = w[live] * p
            blocks.append(wb)
            # a branch below the dust keeps its weight but is not collapsed
            kept.append((obs, outcome, p, p >= _DUST))
    w_next = np.concatenate(blocks)
    if len(levels) == 1:  # the last level only weighs its branches
        return w_next.reshape(-1, rows)
    counts = [int(keep.sum()) for *_, keep in kept]
    amps_next = np.empty((sum(counts), amps.shape[1]), np.complex128)
    live_next, start = [], 0
    for b, ((obs, outcome, p, keep), count) in enumerate(zip(kept, counts)):
        block = amps_next[start : start + count]  # C-contiguous, so _split is a view
        start += count
        if count:
            np.compress(keep, amps, axis=0, out=block)
            _collapse(block, n, q, obs, np.full(count, float(outcome)), p[keep])
        live_next.append(b * rows + live[keep])
    below = _walk(amps_next, n, levels[1:], w_next, np.concatenate(live_next))
    return below.reshape(-1, rows)


def _joint_table(
    state: PureState, qubits: Sequence[int], alphabets: Sequence[Sequence[Axis]]
) -> np.ndarray:
    """Joint outcome distributions for measuring ``qubits[j]`` along each
    setting of ``alphabets[j]``, every setting profile at once.

    Row ``i`` is the ``i``-th profile of the lexicographic product of the
    alphabets; its columns are outcome indices, ``qubits[0]`` the top bit
    and bit value 0 meaning +1.  One level-by-level walk computes every
    branch, and each equals the branch of its own recursive projection
    tree bit for bit: each row's ``<O>`` is summed pairwise as a single
    state's is, and a branch whose projection weight falls below 1e-12
    is not collapsed, so all of its descendants weigh 0.0.  (A collapsed
    branch of k <= 24 levels weighs at least 1e-12**k > 0, so no other
    branch has weight 0.)
    """
    if len(set(qubits)) != len(qubits):
        raise ValueError("joint measurement qubits must be distinct")
    for q in qubits:
        if not 0 <= q < state.n:
            raise ValueError(f"qubit q{q} out of range")
    levels = [(q, [_observable(a) for a in axes]) for q, axes in zip(qubits, alphabets)]
    k = len(levels)
    sizes = [len(obs) for _, obs in levels]
    w = np.ones(1)
    if k:
        w = _walk(state.amps.reshape(1, -1), state.n, levels, w, np.zeros(1, np.intp))
    # leaves are (setting, outcome) pairs, the last qubit's slowest
    w = w.reshape([d for size in reversed(sizes) for d in (size, 2)])
    order = [2 * (k - 1 - j) for j in range(k)] + [2 * (k - 1 - j) + 1 for j in range(k)]
    return w.transpose(order).reshape(math.prod(sizes), 1 << k)


def joint_probabilities(
    state: PureState, specs: tuple[MeasurementSpec, ...]
) -> dict[tuple[int, ...], float]:
    """Exact joint outcome distribution for simultaneous single-qubit
    measurements on distinct qubits, keyed by tuples of +1/-1.

    Each outcome's probability is the product of its sequential
    projection weights; the tree of projections is walked one level at
    a time (see :func:`_joint_table`).
    """
    row = _joint_table(state, [s.qubit for s in specs], [(s.axis,) for s in specs])[0]
    return dict(zip(itertools.product((1, -1), repeat=len(specs)), row.tolist()))


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


_H = GATE_KINDS.index(GateKind.H)  # H's op code


def _number(group, bit, rows):
    """A shot's new history is (row, outcome ``bit``): the histories seen
    as ``2 * row + bit``, ascending, and each shot's index among them."""
    key = 2 * group + bit
    seen = np.bincount(key, minlength=2 * rows) > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[key]


_FAIR = 1.0 / math.sqrt(0.5)  # the collapse factor 1/sqrt(p) of a fair coin


class _Histories:
    """The rows of ``run``: one amplitude row per distinct classical
    history, held over the live qubits only.

    ``amps`` is ``(rows, 2**len(live))``, indexed as a state of the live
    qubits in their order; ``at[q]`` is live qubit q's place among them.
    Every other qubit has a per-row bit in ``base`` (at the qubit's
    basis-index bit), and the bits of live and plus qubits are 0:

    - A *fixed* qubit, measured in Z, has its bit as its value.
    - A *copy* of a live qubit k, its *coordinate*, has k's value XOR its
      bit: a CNOT from k, or from a copy of k, onto a fixed qubit records
      one.  ``copy_of[t]`` is copy t's coordinate and ``copies[k]`` lists
      k's copies.  A coordinate is the lowest qubit of its group, so when
      a lower fixed qubit joins, k's axis moves to that qubit's place,
      flipped in the rows whose new bit is 1, and k becomes its copy.
    - A *plus* qubit, one in ``plus``, has both halves equal to the row's
      amplitudes: an unconditioned H that is its qubit's first op makes
      one.  A Z measurement of it is a fair coin (:meth:`_fair_coin`).
      Any other op on it, any other measurement, whose sum reads its
      terms twice, and :meth:`state` first put it back into ``amps``
      (:meth:`_unplus`).

    The full state of row ``r`` is thus its amplitudes at the values the
    bits give, repeated over the values of the plus qubits, zero
    elsewhere, and the rows keep basis-index order.
    Gates that only permute or phase basis states act on bits: X on a
    fixed qubit or a copy flips its bit, Z, R, S and Y scale its rows or
    its coordinate's halves by bit class, and X or Y on a coordinate also
    flips its copies' bits.  An oracle reads a fixed input as its bit.
    An op that needs a qubit in superposition first puts it back into
    ``amps`` (:meth:`_insert`), and one that changes a coordinate's value
    otherwise first inserts its copies.

    Every nonzero amplitude is bit-identical to the full-vector
    evolution, up to the sign of a zero part: the left-out amplitudes are
    exact zeros, which no kernel turns into anything else, the kernels
    are elementwise, and every ``<O>`` sum adds the same nonzero terms in
    the same order.  A product with 1 + 0j can turn a -0.0 part into
    +0.0, and the two take it in different places: X on a fixed qubit
    flips its bit here where the full vector multiplies, and an oracle
    part that is 1 everywhere multiplies a live output here where the
    full vector swaps it by copies.
    """

    def __init__(self, n: int, n_cbits: int):
        self.n = n
        self._set_live(list(range(n)))
        self.amps = np.zeros((1, 1 << n), dtype=np.complex128)
        self.amps[0, 0] = 1.0
        self.base = np.zeros(1, dtype=np.int64)
        self.cbits = np.zeros((1, n_cbits), dtype=np.uint8)
        self.copy_of: dict[int, int] = {}
        self.copies: dict[int, list[int]] = {}
        self.plus: set[int] = set()

    def _set_live(self, live: list[int]) -> None:
        self.live = live
        self.at = {q: j for j, q in enumerate(live)}

    def _bit(self, q: int) -> np.ndarray:
        return (self.base >> _bitpos(self.n, q)) & 1

    def _on_rows(self, mask, kernel, *args) -> None:
        """``kernel(amps, *args)`` on the rows ``mask`` selects (all if None)."""
        count = len(self.amps) if mask is None else np.count_nonzero(mask)
        if count == len(self.amps):
            kernel(self.amps, *args)
        elif count:
            sub = self.amps[mask]
            kernel(sub, *args)
            self.amps[mask] = sub

    def _insert(self, q: int) -> None:
        """Put qubit q back into the amplitudes at its value.  A fixed
        qubit is a copy of nothing: its value is its bit, and its other
        half is zero.  A copy's value is its coordinate's XOR its bit."""
        j = bisect.bisect(self.live, q)  # q's place among the live qubits
        k = self.copy_of.pop(q, None)
        if k is None:  # an axis of size 1 stands for the coordinate
            shape = (1, 1, 1 << j)
        else:
            self.copies[k].remove(q)
            if not self.copies[k]:
                del self.copies[k]
            i = self.at[k]  # the coordinate is above q
            shape = (1 << i, 2, 1 << (j - 1 - i))
        rows = len(self.amps)
        amps = np.zeros((rows, 2 << len(self.live)), dtype=np.complex128)
        new = amps.reshape((rows, *shape, 2, -1))
        old = self.amps.reshape((rows, *shape, -1))
        r, bit = np.arange(rows), self._bit(q)
        for a in range(shape[1]):  # the coordinate's value a puts q at a XOR bit
            new[r, :, a, :, a ^ bit] = old[:, :, a]
        self.amps = amps
        self._set_live(self.live[:j] + [q] + self.live[j:])
        self.base &= ~(1 << _bitpos(self.n, q))

    def _unplus(self, qubits) -> None:
        """Put the plus qubits among ``qubits`` back into the rows, in one
        pass: both halves of each are the stored amplitudes."""
        back = self.plus.intersection(qubits)
        if not back:
            return
        self.plus -= back
        rows, live = len(self.amps), sorted(self.live + list(back))
        amps = np.empty((rows,) + (2,) * len(live), dtype=np.complex128)
        amps[...] = self.amps.reshape((rows,) + tuple(1 if q in back else 2 for q in live))
        self.amps = amps.reshape(rows, -1)
        self._set_live(live)

    def _free(self, q: int) -> None:
        """Make q an axis of the rows that no other qubit copies."""
        if q not in self.at:
            self._insert(q)
        for t in tuple(self.copies.get(q, ())):
            self._insert(t)

    def _copy(self, c: int, q: int) -> None:
        """CNOT from c, live or a copy, onto fixed q: q becomes a copy of
        c's coordinate k, its bit XORed with c's.  When q is above k, k's
        axis moves to q's place, flipped in the rows where q's bit is 1,
        and k and its copies become copies of q."""
        k = self.copy_of.get(c, c)
        self.base ^= self._bit(c) << _bitpos(self.n, q)
        if q > k:
            self.copy_of[q] = k
            self.copies.setdefault(k, []).append(q)
            return
        flip = self._bit(q)
        i, j, rows = self.at[k], bisect.bisect(self.live, q), len(self.amps)
        amps = np.empty_like(self.amps)
        new = amps.reshape(rows, 1 << j, 2, 1 << (i - j), -1)
        old = self.amps.reshape(rows, 1 << j, 1 << (i - j), 2, -1)
        r = np.arange(rows)
        for a in (0, 1):
            new[r, :, a ^ flip] = old[:, :, :, a]
        self.amps = amps
        self._set_live(self.live[:j] + [q] + self.live[j:i] + self.live[i + 1 :])
        group = self.copies.pop(k, []) + [k]
        for t in group:
            self.copy_of[t] = q
            self.base ^= flip << _bitpos(self.n, t)
        self.copies[q] = group
        self.base &= ~(1 << _bitpos(self.n, q))

    def state(self, row: int) -> np.ndarray:
        """Row ``row`` as a full vector of 2**n amplitudes; every plus
        qubit and every copy is put back into the rows first."""
        self._unplus(self.plus)
        for t in tuple(self.copy_of):
            self._insert(t)
        full = np.zeros((2,) * self.n, dtype=np.complex128)
        bits = (int(self.base[row]) >> _bitpos(self.n, q) & 1 for q in range(self.n))
        at = tuple(slice(None) if q in self.at else b for q, b in enumerate(bits))
        full[at] = self.amps[row].reshape((2,) * len(self.live))
        return full.reshape(-1)

    def gate(self, kind: GateKind, targets: list[int], condition: int,
             fresh: bool = False) -> None:
        """Apply a gate, on the rows whose bit ``condition`` is 1 unless
        that is -1.  ``fresh`` says an unconditioned H's qubit has seen no
        op before it, so its 1 half is zero and both halves become its 0
        half times ``u00``: the rows keep that product alone, and the qubit
        becomes a plus qubit.  Any other gate on a plus qubit puts it back
        into the rows first."""
        if fresh:
            q = targets[0]
            j, rows = self.at[q], len(self.amps)
            half = _split(self.amps, len(self.live), j)[:, :, 0, :]
            self.amps = (_ENTRIES[kind][0] * half).reshape(rows, -1)
            self._set_live(self.live[:j] + self.live[j + 1 :])
            self.plus.add(q)
            return
        if self.plus:
            self._unplus(targets)
        mask = None if condition == -1 else self.cbits[:, condition] == 1
        if kind is GateKind.CNOT:
            c, q = targets
            if c in self.at or c in self.copy_of:
                if (q not in self.at and q not in self.copy_of
                        and (mask is None or np.count_nonzero(mask) == len(mask))):
                    self._copy(c, q)
                    return
                if c not in self.at:
                    self._insert(c)
                if q not in self.at or q in self.copies:
                    self._free(q)
                self._on_rows(mask, _apply_cnot, len(self.live), self.at[c], self.at[q])
                return
            # A fixed control is an X on the target in the rows where it is 1.
            on = self._bit(c) == 1
            mask = on if mask is None else mask & on
            kind = GateKind.X
        else:
            q = targets[0]
        u = _ENTRIES[kind]
        if kind is GateKind.H and (q not in self.at or q in self.copies):
            self._free(q)
        flip = int(u[0] == 0)
        if q in self.at:  # X and Y leave a coordinate's copies' values as they were
            self._on_rows(mask, _apply_1q, len(self.live), self.at[q], u)
            if flip and q in self.copies:
                for t in self.copies[q]:
                    self.base[slice(None) if mask is None else mask] ^= 1 << _bitpos(self.n, t)
            return
        # Every other gate maps basis state b of a fixed qubit or a copy to
        # one basis state b ^ flip, times its matrix entry u[b ^ flip, b].
        bit = self._bit(q)
        k = self.copy_of.get(q)
        for b in (0, 1):
            d = u[2 * (b ^ flip) + b]
            if d == 1:
                continue
            if k is None:  # the rows where q is b
                sel = bit == b
                self._on_rows(sel if mask is None else sel & mask, _scale, d)
                continue
            for a in (0, 1):  # k's half a holds q = b in the rows whose bit is a ^ b
                sel = bit == a ^ b
                self._on_rows(sel if mask is None else sel & mask, _scale_half,
                              len(self.live), self.at[k], a, d)
        if flip:
            self.base[slice(None) if mask is None else mask] ^= 1 << _bitpos(self.n, q)

    def oracle(self, function: BooleanFunction, qubits: list[int]) -> None:
        """Apply the oracle of ``function`` on ``qubits``, its inputs then its output.

        With every input live it acts on all rows at once, the output put
        into the rows first if it is fixed.  A fixed input stays out of
        the rows, as a CNOT's fixed control does: its bit picks the part
        of the truth table that the row's live inputs read.  Rows are
        grouped by that part, and each group gets the oracle restricted
        to the live inputs.  A part that is 0 everywhere leaves its rows
        as they are, and one that is 1 everywhere only flips the output:
        its bit when the output is fixed, its halves when it is live.  A
        fixed output enters the rows only when some group's part reads a
        live input.  A copy among the inputs is put back into the rows
        first, and so are the output, if it is a copy, and its copies.
        The oracle only moves amplitudes, so the rows stay bit-identical
        to the full vector's.
        """
        if self.plus:
            self._unplus(qubits)
        *inputs, out = qubits
        for q in inputs:
            if q in self.copy_of:
                self._insert(q)
        if out in self.copy_of or out in self.copies:
            self._free(out)
        if all(q in self.at for q in inputs):
            if out not in self.at:
                self._insert(out)
            at = [self.at[q] for q in qubits]
            _apply_oracle(self.amps, len(self.live), OracleApp(function, tuple(at[:-1]), at[-1]))
            return
        k = len(inputs)
        live = [j for j, q in enumerate(inputs) if q in self.at]
        # each row's fixed inputs, at their bits of the table index
        x = np.zeros(len(self.base), dtype=np.int64)
        for j, q in enumerate(inputs):
            if q not in self.at:
                x |= self._bit(q) << (k - 1 - j)
        reads = np.zeros(1, dtype=np.int64)  # table index of each live-input value
        for j in live:  # the first live input is the top bit
            reads = (reads[:, None] | np.array([0, 1 << (k - 1 - j)])).reshape(-1)
        table = np.array(function.table, dtype=np.int8)
        parts: dict[tuple, np.ndarray] = {}  # restricted truth table -> its rows
        for g in set(x.tolist()):
            key, rows = tuple(table[g + reads].tolist()), x == g
            parts[key] = parts[key] | rows if key in parts else rows
        # rows whose part is all 0 are left as they are; all 1 flips the output
        parts.pop((0,) * (1 << len(live)), None)
        ones = parts.pop((1,) * (1 << len(live)), None)
        if out not in self.at:
            if ones is not None:
                self.base[ones] ^= 1 << _bitpos(self.n, out)
                ones = None
            if not parts:
                return
            self._insert(out)
        n, j = len(self.live), self.at[out]
        if ones is not None:
            self._on_rows(ones, _apply_1q, n, j, _ENTRIES[GateKind.X])
        at = tuple(self.at[inputs[i]] for i in live)
        for key, rows in parts.items():
            f = BooleanFunction(len(live), key)
            self._on_rows(rows, _apply_oracle, n, OracleApp(f, at, j))

    def _fair_coin(self, q: int, dest: int, u: np.ndarray, group: np.ndarray) -> np.ndarray:
        """Measure plus qubit q in Z.  Its halves are equal, so every term
        of ``<Z>`` is +0 and ``p_plus`` is 0.5 in every row: each shot's
        outcome is ``u >= 0.5``, every row is scaled by 1/sqrt(0.5), as
        :func:`_collapse` scales the outcome's half, and q becomes fixed at
        its outcome."""
        keys, group = _number(group, u >= 0.5, len(self.amps))
        self.amps *= _FAIR
        _dust(self.amps)
        rows, bit = keys >> 1, keys & 1
        if len(keys) > len(self.amps):
            self.amps, self.base, self.cbits = self.amps[rows], self.base[rows], self.cbits[rows]
        self.base |= bit << _bitpos(self.n, q)
        self.cbits[:, dest] = bit
        self.plus.remove(q)
        return group

    def measure(self, q: int, axis: PauliAxis, dest: int, u: np.ndarray,
                group: np.ndarray) -> np.ndarray:
        """Measure qubit q along ``axis`` into bit ``dest``, every shot with
        its uniform ``u``; returns the new ``group``.  A plus qubit measured
        in Z is a fair coin; every other measurement sums each row's
        terms, so the plus qubits go back into the rows first."""
        obs = _observable(axis)
        z = _is_z(obs)
        if self.plus:
            if z and q in self.plus:
                return self._fair_coin(q, dest, u, group)
            self._unplus(self.plus)
        if (not z and q not in self.at) or q in self.copy_of or q in self.copies:
            self._free(q)
        j, k = self.at.get(q), len(self.live)
        if j is not None:
            e = _expectation(self.amps, k, j, obs)
        else:
            # the same sum of every row's pairs, in order, signed by its bit
            e = _row_sums(_norms(self.amps))
            e[self._bit(q) == 1] *= -1.0
        p_plus = np.clip(0.5 * (1.0 + e), 0.0, 1.0)
        keys, group = _number(group, u >= _cut(p_plus)[group], len(self.amps))
        rows, bit = keys >> 1, (keys & 1).astype(np.uint8)
        p = np.where(bit == 0, p_plus[rows], 1.0 - p_plus[rows])
        if len(keys) > len(self.amps):  # some row split: one row per new history
            self.base, self.cbits = self.base[rows], self.cbits[rows]
            if not (z and j is not None):
                self.amps = self.amps[rows]
        if not z:
            _collapse(self.amps, k, j, obs, 1.0 - 2.0 * bit, p)
        else:
            keep = 1.0 / np.sqrt(p)
            if j is not None:  # keep each row's outcome half, scaled as _collapse does
                self.amps = _split(self.amps, k, j)[rows, :, bit].reshape(len(keys), -1)
                self._set_live(self.live[:j] + self.live[j + 1 :])
            else:  # the rows are in one half already; zero if the outcome is not it
                keep *= bit == self._bit(q)
            self.amps *= keep.astype(np.complex128)[:, None]
            _dust(self.amps)
            pos = _bitpos(self.n, q)
            self.base = self.base & ~(1 << pos) | bit.astype(np.int64) << pos
        self.cbits[:, dest] = bit
        return group


def run(circuit: Circuit, shots: int, seed: int, keep_final_state: bool = False) -> RunResult:
    """Sample ``shots`` executions; returns the classical-bit histogram.

    Shots only diverge at measurements, so each row of the amplitude
    array is one distinct classical history and ``group[i]`` is the row
    shot ``i`` is in.  A measurement computes ``p_plus`` once per row,
    compares every shot's own uniform against its row's value, and
    splits a row only when its shots disagree.  A qubit measured in Z
    leaves the amplitude array until a gate needs it in superposition
    again, and a CNOT onto it records it as a copy of its control; an
    unconditioned H on an untouched qubit leaves it out as a plus qubit,
    whose Z measurement is a fair coin (see :class:`_Histories`).  Any
    other qubit stays in the array.

    The shots run in blocks of ``_BATCH_BYTES // (16 << n)``
    (:func:`qsim.result.sample_blocks`), each evolved from |0...0> with
    its own uniforms (``shot_uniforms(..., first_shot=)``).  Shot ``i``
    draws from its own counter block, and every row sums ``<O>`` in the
    same order however many rows share its block (see
    :func:`_expectation`), so a fixed seed gives the same counts however
    the shots are grouped or blocked.  ``keep_final_state`` returns the
    state of shot ``shots - 1``.  The ops are read as the rows of the
    circuit's op table (:meth:`qsim.circuit.OpTable.rows`), so a parsed
    circuit's op objects are never built.
    """
    bad = violations(circuit)
    if bad:
        raise ValueError(f"invalid circuit: op {bad[0].op_index}: {bad[0].message}")
    if shots < 1:
        raise ValueError("shots must be positive")
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the dense limit of {MAX_QUBITS}")

    table = op_table(circuit)
    program = table.rows()
    # An unconditioned H that is its qubit's first op makes a plus qubit.
    targets, start = table.targets.tolist(), table.start.tolist()
    first = dict(zip(reversed(targets), range(len(targets) - 1, -1, -1)))  # qubit -> first slot
    fresh = {i for i, (code, cond) in enumerate(zip(table.kind.tolist(), table.cond.tolist()))
             if code == _H and cond == -1 and first[targets[start[i]]] == start[i]}
    n_meas = int(np.count_nonzero(table.kind == MEASURE))
    rows = group = None

    def block(first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal rows, group
        u = shot_uniforms(seed, count, n_meas, first_shot=first)
        group = np.zeros(count, dtype=np.intp)
        rows = _Histories(n, circuit.n_cbits)
        m = 0
        for i, (kind, qubits, condition, axis, dest) in enumerate(program):
            if kind == MEASURE:
                group = rows.measure(qubits[0], AXES[axis], dest, u[:, m], group)
                m += 1
            elif kind == ORACLE:
                rows.oracle(table.functions[i], qubits)
            else:
                rows.gate(GATE_KINDS[kind], qubits, condition, i in fresh)
        return key_words(rows.cbits.T), np.bincount(group, minlength=len(rows.cbits))

    chunk = max(1, _BATCH_BYTES // (16 << n))  # rows never outnumber a block's shots
    return sample_blocks("sv", shots, seed, circuit.n_cbits, chunk, block,
                         lambda: PureState(n, rows.state(group[-1])) if keep_final_state else None)
