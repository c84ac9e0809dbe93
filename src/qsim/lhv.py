"""Correlation experiments and local models with a classical-bit budget.

The objects here connect three views of a multi-party measurement
experiment:

* quantum predictions — exact joint outcome distributions computed by
  the dense backend (:func:`quantum_table`);
* inequality functionals over those tables (:func:`correlator`,
  :func:`chsh_value`, :func:`mermin_correlators`);
* explicit classical explanations — mixtures of deterministic
  strategies whose parties may exchange a fixed number of one-bit
  messages (:class:`LocalModel`), searched for by linear programming
  (:func:`find_local_model`) and executed shot-by-shot
  (:func:`simulate_model`).  The LP's columns are the distinct tables
  the strategies induce, each represented by its lowest-numbered
  strategy, and are brought into a restricted master LP by pricing.

Conventions used throughout: a party's outcome is +1 or -1; outcome
tuples are indexed with party 0 as the most significant bit and bit
value 0 meaning +1; setting profiles enumerate as the lexicographic
product of the per-party alphabets.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import PauliAxis, ghz, gk_entangler
from .errors import QsimError, TooManyStrategies, UnknownProfile
from .rng import stream
from .statevector import (
    BlochAxis,
    PureState,
    _joint_table,
    evolve,
)

Setting = PauliAxis | BlochAxis
Profile = tuple[Setting, ...]

PAULI_ALPHABET: tuple[PauliAxis, ...] = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)

_MAX_PROFILES = 4096
_SWEEP_CHUNK = 128  # CHSH grid points per walk: at most 129 x 257 profiles
_MAX_STRATEGIES = 1_000_000
_BLOCK = 1 << 15  # key words, table entries or sampler shots held at once
_SNAP_DENOMINATOR = 4096
# entries below this keep fraction-free products inside int64
_EXACT_INT64_LIMIT = 1 << 31


def index_outcomes(index: int, parties: int) -> tuple[int, ...]:
    """The +1/-1 outcomes of a table row: party 0 is the top bit of
    ``index``, and a bit of 1 means -1."""
    return tuple(-1 if (index >> (parties - 1 - p)) & 1 else 1 for p in range(parties))


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint outcome distributions, one per setting profile.

    ``dists[profile]`` is a length-``2**parties`` probability vector in
    outcome-index order.  Profiles run over the lexicographic product
    of ``alphabets``.
    """

    alphabets: tuple[tuple[Setting, ...], ...]
    dists: dict[Profile, np.ndarray]

    def __post_init__(self):
        if len(self.alphabets) < 2:
            raise ValueError("need at least two parties")
        size = 1 << self.parties
        for profile, dist in self.dists.items():
            if dist.shape != (size,):
                raise ValueError(f"distribution for {profile} has wrong length")
            total = float(dist.sum())
            if not math.isfinite(total):  # any NaN or inf entry; NaN passes both checks below
                raise ValueError(f"non-finite probability in profile {profile}")
            if dist.min() < -1e-12:
                raise ValueError(f"negative probability in profile {profile}")
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"distribution for {profile} does not sum to 1")

    @property
    def parties(self) -> int:
        return len(self.alphabets)

    def profiles(self):
        """All profiles in canonical (lexicographic product) order."""
        return itertools.product(*self.alphabets)

    def _dist(self, profile: Profile) -> np.ndarray:
        try:
            return self.dists[tuple(profile)]
        except KeyError:
            raise UnknownProfile(f"no distribution for profile {profile}") from None


def table_vector(table: CorrelationTable) -> np.ndarray:
    """Flatten a table to one vector: profiles in canonical order, then
    outcome index — the coordinate system certificates refer to."""
    return np.concatenate([table._dist(p) for p in table.profiles()])


def _table_from_matrix(
    alphabets: tuple[tuple[Setting, ...], ...], matrix: np.ndarray
) -> CorrelationTable:
    dists = {
        profile: matrix[i].copy()
        for i, profile in enumerate(itertools.product(*alphabets))
    }
    return CorrelationTable(alphabets, dists)


# ---------------------------------------------------------------------------
# Quantum predictions and inequality functionals


def singlet_state() -> PureState:
    return evolve(gk_entangler())


def ghz_state(parties: int = 3) -> PureState:
    return evolve(ghz(parties))


def quantum_table(
    state: PureState, alphabets: Sequence[Sequence[Setting]]
) -> CorrelationTable:
    """Exact joint distributions for every setting profile.

    One party per qubit.  A single batched projection walk evaluates
    every profile at once; each entry equals that of the profile's own
    projective decomposition bit for bit.
    """
    alphabets = tuple(tuple(a) for a in alphabets)
    if len(alphabets) != state.n:
        raise ValueError(f"state has {state.n} qubits but {len(alphabets)} alphabets given")
    if any(len(a) == 0 for a in alphabets):
        raise ValueError("every party needs a nonempty alphabet")
    n_profiles = math.prod(len(a) for a in alphabets)
    if n_profiles > _MAX_PROFILES:
        raise ValueError(f"{n_profiles} profiles exceeds the cap of {_MAX_PROFILES}")
    return _table_from_matrix(alphabets, _joint_table(state, range(state.n), alphabets))


def correlator(table: CorrelationTable, profile: Profile) -> float:
    """Expectation of the product of all parties' +1/-1 outcomes."""
    dist = table._dist(profile)
    idx = np.arange(dist.size)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx) & 1).astype(np.float64)
    return float(dist @ signs)


def chsh_value(
    table: CorrelationTable, a: Setting, a2: Setting, b: Setting, b2: Setting
) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    if table.parties != 2:
        raise ValueError("CHSH needs a two-party table")
    return (
        correlator(table, (a, b))
        + correlator(table, (a, b2))
        + correlator(table, (a2, b))
        - correlator(table, (a2, b2))
    )


def chsh_sweep(steps: int) -> list[tuple[float, float]]:
    """CHSH value of the singlet along a one-parameter basis rotation.

    At sweep angle t the parties use equatorial Bloch settings with
    azimuths (0, 2t) and (t, -t).  The curve starts at S = -2 (aligned
    bases), reaches |S| = 2*sqrt(2) at t = pi/4, and passes through 0
    at t = pi/2 as the bases realign.  Returns (t, S) pairs on the grid
    t = k*pi/steps, k = 0..steps.

    One projection walk over the distinct settings of up to
    ``_SWEEP_CHUNK`` grid points gives all of their tables; each point
    then reads its four profiles as :func:`chsh_value` of a two-by-two
    table, bit for bit as if that table were built alone.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    state = singlet_state()
    tau = 2.0 * math.pi
    a = BlochAxis(math.pi / 2, 0.0)
    points = []
    for k in range(steps + 1):
        t = math.pi * k / steps
        a2 = BlochAxis(math.pi / 2, (2.0 * t) % tau)
        b = BlochAxis(math.pi / 2, t % tau)
        b2 = BlochAxis(math.pi / 2, (-t) % tau)
        points.append((t, (a, a2), (b, b2)))
    out: list[tuple[float, float]] = []
    for first in range(0, len(points), _SWEEP_CHUNK):
        chunk = points[first : first + _SWEEP_CHUNK]
        alice = {s: i for i, s in enumerate(dict.fromkeys(s for _, al, _ in chunk for s in al))}
        bob = {s: i for i, s in enumerate(dict.fromkeys(s for *_, bl in chunk for s in bl))}
        matrix = _joint_table(state, (0, 1), (tuple(alice), tuple(bob)))
        for t, al, bl in chunk:
            rows = [alice[x] * len(bob) + bob[y] for x, y in itertools.product(al, bl)]
            out.append((t, chsh_value(_table_from_matrix((al, bl), matrix[rows]), *al, *bl)))
    return out


def mermin_correlators(table: CorrelationTable) -> tuple[float, float, float, float]:
    """The four three-party parity correlators (XXX, XYY, YXY, YYX)."""
    if table.parties != 3:
        raise ValueError("Mermin correlators need a three-party table")
    x, y = PauliAxis.X, PauliAxis.Y
    return (
        correlator(table, (x, x, x)),
        correlator(table, (x, y, y)),
        correlator(table, (y, x, y)),
        correlator(table, (y, y, x)),
    )


# ---------------------------------------------------------------------------
# Communication topologies and deterministic strategies


@dataclass(frozen=True)
class CommTopology:
    """An ordered list of one-bit messages (sender, receiver).

    Messages are delivered in sequence: the sender of message k knows
    its own setting and every bit it received from messages before k;
    outputs are produced after all messages, each party seeing its full
    received-bit record.  The budget is simply the message count.
    """

    parties: int
    messages: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.parties < 2:
            raise ValueError("need at least two parties")
        for k, (snd, rcv) in enumerate(self.messages):
            if not (0 <= snd < self.parties and 0 <= rcv < self.parties):
                raise ValueError(f"message {k} references a missing party")
            if snd == rcv:
                raise ValueError(f"message {k} has sender = receiver")

    @property
    def budget(self) -> int:
        return len(self.messages)


@dataclass(frozen=True)
class DeterministicStrategy:
    """One extreme point of the communication-assisted local polytope.

    ``outputs[p][a][rec]`` is party p's +1/-1 answer when its setting
    index is ``a`` and the bits it received (packed first-arrival =
    bit 0) equal ``rec``.  ``messages[k][a][rec]`` is the bit sent in
    topology slot k given the sender's setting index and the bits the
    sender had received before slot k.

    Valid for a topology and alphabet sizes: one output table per party
    and one table per message, each with a row per setting of its party
    (the sender's, for messages) and an entry per received-bit pattern;
    outputs in {+1, -1}, message bits in {0, 1}.  :func:`strategy_table`,
    :func:`model_table` and :func:`simulate_model` raise ``ValueError``
    on any other strategy.
    """

    outputs: tuple[tuple[tuple[int, ...], ...], ...]
    messages: tuple[tuple[tuple[int, ...], ...], ...] = ()


class _CellLayout:
    """Assigns every free binary choice of a strategy a cell index.

    Cell order: each party's output table (parties in index order,
    settings outer, received-bit patterns inner), then each message's
    table (topology order, settings outer, prior-bit patterns inner).
    Strategy number s assigns cell j the bit (s >> (C-1-j)) & 1, so the
    enumeration is lexicographic in the concatenated tables, with
    output bit 0 meaning +1.
    """

    def __init__(self, parties: int, sizes: tuple[int, ...], topology: CommTopology):
        if topology.parties != parties:
            raise ValueError("topology party count does not match")
        if len(sizes) != parties:
            raise ValueError("need one alphabet size per party")
        if any(m < 1 for m in sizes):
            raise ValueError("alphabet sizes must be positive")
        self.parties = parties
        self.sizes = sizes
        self.topology = topology
        seen = [0] * parties
        self.pre: list[int] = []  # bits sender holds before each message
        self.arrival: list[int] = []  # bit position at the receiver
        for snd, rcv in topology.messages:
            self.pre.append(seen[snd])
            self.arrival.append(seen[rcv])
            seen[rcv] += 1
        self.inbits = tuple(seen)
        # (rows, entries per row) of every table, in cell order, and the
        # first cell of each
        self.shapes = [(sizes[p], 1 << self.inbits[p]) for p in range(parties)] + [
            (sizes[snd], 1 << self.pre[k]) for k, (snd, _) in enumerate(topology.messages)
        ]
        self.base = list(itertools.accumulate((r * w for r, w in self.shapes), initial=0))
        self.n_cells = self.base[-1]
        # entries for bits 0 and 1: +1/-1 in output tables, 0/1 in messages
        self.values = [(1, -1)] * parties + [(0, 1)] * len(topology.messages)

    def out_cell(self, p: int, a: int, rec: int) -> int:
        return self.base[p] + (a << self.inbits[p]) + rec

    def msg_cell(self, k: int, a: int, rec: int) -> int:
        return self.base[self.parties + k] + (a << self.pre[k]) + rec

    @property
    def count(self) -> int:
        return 1 << self.n_cells

    def strategy(self, s: int) -> DeterministicStrategy:
        digits = f"{s:0{self.n_cells}b}"
        tables = []
        for (rows, width), values, pos in zip(self.shapes, self.values, self.base):
            tables.append(
                tuple(
                    tuple(values[int(d)] for d in digits[pos + a * width : pos + (a + 1) * width])
                    for a in range(rows)
                )
            )
        return DeterministicStrategy(tuple(tables[: self.parties]), tuple(tables[self.parties :]))

    def cells(self, strategies: Sequence[DeterministicStrategy]) -> np.ndarray:
        """The cell bits of each strategy, the inverse of :meth:`strategy`.

        Shape (len(strategies), n_cells), uint8; row i read as a binary
        number is the strategy number of ``strategies[i]``.  The one check
        of strategy tables against the layout: a missing or extra table, a
        wrong shape or an entry outside its value set raises ``ValueError``.
        """
        flat: list[int] = []
        for i, strat in enumerate(strategies):
            tables = (*strat.outputs, *strat.messages)
            if len(strat.outputs) != self.parties or len(tables) != len(self.shapes):
                raise ValueError(f"strategy {i} needs {self.parties} output tables and "
                                 f"{len(self.shapes) - self.parties} message tables")
            for t, (table, (rows, width)) in enumerate(zip(tables, self.shapes)):
                k = t - self.parties
                name = f"party {t}'s output" if k < 0 else f"message {k}'s"
                bit = {v: b for b, v in enumerate(self.values[t])}
                if len(table) != rows or any(len(row) != width for row in table):
                    raise ValueError(f"strategy {i}: {name} table must be {rows} rows of {width}")
                try:
                    flat.extend(bit[v] for row in table for v in row)
                except (KeyError, TypeError):
                    raise ValueError(f"strategy {i}: {name} table has an entry outside "
                                     f"{set(bit)}") from None
        return np.array(flat, dtype=np.uint8).reshape(len(strategies), self.n_cells)


class StrategyEnumeration(Sequence):
    """Lazy, duplicate-free sequence of all deterministic strategies.

    Index order is the lexicographic cell order documented on
    :class:`_CellLayout`; strategy 0 answers +1 everywhere and sends
    all-zero messages.
    """

    def __init__(self, layout: _CellLayout):
        self._layout = layout

    def __len__(self) -> int:
        return self._layout.count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        return self._layout.strategy(i % len(self))


def enumerate_strategies(
    parties: int, alphabet_sizes: Sequence[int], topology: CommTopology
) -> StrategyEnumeration:
    """Every deterministic strategy compatible with the topology.

    The count is 2**(total table cells); anything above 10**6 raises
    :class:`TooManyStrategies` before any work is done.
    """
    return StrategyEnumeration(_strategy_layout(parties, alphabet_sizes, topology))


def _strategy_layout(
    parties: int, alphabet_sizes: Sequence[int], topology: CommTopology
) -> _CellLayout:
    """The cell layout of the strategy space, refused with
    :class:`TooManyStrategies` when it holds more than the cap."""
    layout = _CellLayout(parties, tuple(alphabet_sizes), topology)
    if layout.count > _MAX_STRATEGIES:
        raise TooManyStrategies(
            f"{layout.count} strategies exceeds the cap of {_MAX_STRATEGIES}"
        )
    return layout


def strategy_table(
    strategy: DeterministicStrategy,
    topology: CommTopology,
    alphabets: Sequence[Sequence[Setting]],
) -> CorrelationTable:
    """The (deterministic) correlation table one strategy induces."""
    alphabets = tuple(tuple(a) for a in alphabets)
    row = _strategy_rows((strategy,), topology, alphabets)[0]
    return _table_from_matrix(alphabets, np.eye(1 << len(alphabets))[row])


# ---------------------------------------------------------------------------
# Local models


@dataclass(frozen=True, eq=False)
class LocalModel:
    """A mixture of deterministic strategies under one topology.

    ``exact_weights`` is set when the weights are known as exact
    rationals (hand-built models and successful exact LP polishes); the
    float weights are their roundings.
    """

    strategies: tuple[DeterministicStrategy, ...]
    weights: tuple[float, ...]
    topology: CommTopology
    alphabets: tuple[tuple[Setting, ...], ...]
    exact_weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if len(self.strategies) != len(self.weights):
            raise ValueError("one weight per strategy")
        if not self.strategies:
            raise ValueError("a model needs at least one strategy")
        total = sum(self.weights)
        if not math.isfinite(total):  # any NaN or inf weight; NaN passes both checks below
            raise ValueError("weights must be finite")
        if min(self.weights) < 0.0:
            raise ValueError("weights must be nonnegative")
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if self.exact_weights is not None:
            if len(self.exact_weights) != len(self.weights):
                raise ValueError("exact weight count mismatch")
            if sum(self.exact_weights) != 1:
                raise ValueError("exact weights must sum to 1")


def model_table(model: LocalModel, exact: bool = False) -> CorrelationTable:
    """The table the model induces: the weighted strategy-table mix.

    Each (profile, outcome) entry sums the weights of the strategies
    whose :func:`_outcome_rows` row lands on it, in strategy order.
    With ``exact=True`` (requires ``exact_weights``) the sums are taken
    in rational arithmetic, so dyadic entries come out as exact floats.
    """
    if exact and model.exact_weights is None:
        raise ValueError("model carries no exact weights")
    rows = _strategy_rows(model.strategies, model.topology, model.alphabets)
    n_profiles = rows.shape[1]
    size = 1 << len(model.alphabets)
    keys = (rows + (np.arange(n_profiles) * size)).ravel()
    if exact:
        acc = [Fraction(0)] * (n_profiles * size)
        for j, key in enumerate(keys.tolist()):
            acc[key] += model.exact_weights[j // n_profiles]
        flat = np.array([float(f) for f in acc])
    else:
        weights = np.repeat(np.asarray(model.weights, dtype=np.float64), n_profiles)
        flat = np.bincount(keys, weights=weights, minlength=n_profiles * size)
    return _table_from_matrix(model.alphabets, flat.reshape(n_profiles, size))


# ---------------------------------------------------------------------------
# LP feasibility search


@dataclass(frozen=True, eq=False)
class Infeasible:
    """A separating inequality proving no model exists.

    ``coefficients`` lives in :func:`table_vector` coordinates:
    coefficients @ table_vector(T) >= bound holds for every
    deterministic strategy's table T, while the target misses the bound
    by ``violation``.
    """

    coefficients: np.ndarray
    bound: float
    violation: float


def _outcome_rows(layout: _CellLayout, cells: np.ndarray | None = None) -> np.ndarray:
    """Outcome index of every (strategy, profile) pair.

    The only code that runs a strategy.  The strategies are the whole
    enumeration, numbered as on :class:`_CellLayout`, or the rows of an
    explicit ``(n_strategies, n_cells)`` cell-bit matrix ``cells`` (see
    :meth:`_CellLayout.cells`).  Per profile the messages are delivered
    in topology order, then the output cells are read, as
    :class:`CommTopology` describes.

    Shape (n_strategies, n_profiles), C-contiguous, in the narrowest
    unsigned dtype that holds an outcome index (uint8 up to eight
    parties), so a strategy's row is its whole table.  Each cell's bits
    broadcast over the strategy axis.  For the enumeration that axis is
    one length-2 axis per cell (cell 0 the most significant bit of the
    strategy number), so each party's answer is computed over the few
    cells it reads; an explicit matrix gives each cell its column.
    """
    parties, n_cells = layout.parties, layout.n_cells
    dtype = np.min_scalar_type((1 << parties) - 1)
    # holds an outcome index and every party's received-bit record
    work = np.min_scalar_type((1 << max(parties, *layout.inbits)) - 1)
    profiles = list(itertools.product(*(range(m) for m in layout.sizes)))
    if cells is None:
        rows = np.empty((layout.count, len(profiles)), dtype=dtype)
        grid = rows.reshape((2,) * n_cells + (len(profiles),))
        axes = np.eye(n_cells, dtype=int) + 1  # row c: length 2 on axis c, 1 elsewhere
        cell = [np.arange(2, dtype=work).reshape(axes[c]) for c in range(n_cells)]
    else:
        grid = rows = np.empty((len(cells), len(profiles)), dtype=dtype)
        cell = list(np.ascontiguousarray(cells.T, dtype=work))
    zero = np.zeros((1,) * (grid.ndim - 1), dtype=work)
    for i, idx in enumerate(profiles):
        rec = [zero] * parties
        for k, (snd, rcv) in enumerate(layout.topology.messages):
            bits = [cell[layout.msg_cell(k, idx[snd], r)] for r in range(1 << layout.pre[k])]
            rec[rcv] = rec[rcv] | (_pick(rec[snd], bits) << layout.arrival[k])
        out = zero
        for p in range(parties):
            bits = [cell[layout.out_cell(p, idx[p], r)] for r in range(1 << layout.inbits[p])]
            # bit 1 encodes the -1 outcome
            out = out | (_pick(rec[p], bits) << (parties - 1 - p))
        grid[..., i] = out
    return rows


def _pick(index: np.ndarray, choices: list[np.ndarray]) -> np.ndarray:
    """``choices[index]`` elementwise, broadcast; one choice needs no
    pick, and ``choose`` takes at most 63, so more go 32 at a time."""
    if len(choices) == 1:
        return choices[0]
    if len(choices) <= 32:
        return index.choose(choices)
    low = [(index & 31).choose(choices[j : j + 32]) for j in range(0, len(choices), 32)]
    return _pick(index >> 5, low)


def _distinct_tables(outcomes: np.ndarray, parties: int) -> np.ndarray:
    """The lowest-numbered row of each distinct table, ascending.

    ``outcomes`` holds one table per row, as :func:`_outcome_rows` gives
    it.  Each row is packed ``parties`` bits per profile into uint64 key
    words, a bounded block of rows at a time: read as little-endian
    64-bit words of several entries each, every word has its entries'
    bits squeezed together by merging adjacent lanes pairwise, and as
    many squeezed words as fit are shifted into one key word.  One sort
    groups equal keys (``argsort`` for one word, ``lexsort`` for more),
    and each group's minimum row number is its table's representative.
    """
    n, n_profiles = outcomes.shape
    lane = 8 * outcomes.itemsize
    per_word = 64 // lane  # entries per raw word
    word_bits = parties * per_word  # their bits, merged
    merge = 64 // word_bits  # merged raw words per key word
    n_keys = -(-n_profiles // (per_word * merge))
    width = n_keys * merge * per_word
    steps = []
    bits = parties
    while lane < 64:  # lanes of `lane` bits, each holding `bits` bits
        low = sum(((1 << lane) - 1) << k for k in range(0, 64, 2 * lane))
        steps.append((np.uint64(low), np.uint64(~low & (2**64 - 1)), np.uint64(lane - bits)))
        lane, bits = 2 * lane, 2 * bits
    keys = np.empty((n_keys, n), dtype=np.uint64)  # word-major, as lexsort takes them
    step = max(1, _BLOCK // (n_keys * merge))
    for first in range(0, n, step):
        block = outcomes[first : first + step]
        padded = np.zeros((len(block), width), dtype=outcomes.dtype.newbyteorder("<"))
        padded[:, :n_profiles] = block
        words = padded.view("<u8").astype(np.uint64, copy=False)
        for low, high, shift in steps:
            upper = words & high
            words &= low
            upper >>= shift
            words |= upper
        words = words.reshape(len(block), n_keys, merge)
        key = words[..., 0].copy()
        for j in range(1, merge):
            key |= words[..., j] << np.uint64(j * word_bits)
        keys[:, first : first + step] = key.T
    order = np.argsort(keys[0]) if n_keys == 1 else np.lexsort(keys)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for word in keys:
        word = word[order]
        new[1:] |= word[1:] != word[:-1]
    starts = np.flatnonzero(new)
    return np.sort(np.minimum.reduceat(order, starts))


def _strategy_rows(
    strategies: Sequence[DeterministicStrategy],
    topology: CommTopology,
    alphabets: tuple[tuple[Setting, ...], ...],
) -> np.ndarray:
    """:func:`_outcome_rows` of explicit strategies, each checked
    against the topology and alphabet sizes (``ValueError`` if invalid)."""
    layout = _CellLayout(len(alphabets), tuple(len(a) for a in alphabets), topology)
    return _outcome_rows(layout, layout.cells(strategies))


def _snap_dyadic(vec: np.ndarray) -> list[Fraction] | None:
    """Round to small-denominator rationals if every entry is within
    1e-9 of one; otherwise None (the table is not exact-arithmetic
    material)."""
    fracs = []
    for x in vec:
        f = Fraction(float(x)).limit_denominator(_SNAP_DENOMINATOR)
        if abs(float(f) - float(x)) >= 1e-9:
            return None
        fracs.append(f)
    return fracs


def _solve_exact_support(
    cols: np.ndarray, fracs: list[Fraction], n_rows: int
) -> list[Fraction] | None:
    """Solve the feasibility system exactly on a candidate support.

    ``cols[j]`` holds the rows where support column j is 1 (plus the
    implicit normalisation row ``n_rows``).  The targets are scaled by
    their common denominator and the system is reduced by fraction-free
    (Bareiss) Gauss-Jordan elimination in integers: every step divides
    exactly by the previous pivot, so entries stay minors of the input
    and the solution is read off as ``rhs / (det * denominator)``.
    Returns nonnegative rational weights summing to 1 that reproduce
    the target exactly, or None if the support does not admit them.
    """
    k = cols.shape[0]
    denom = math.lcm(*(f.denominator for f in fracs))
    rhs = [f.numerator * (denom // f.denominator) for f in fracs] + [denom]
    small = max(map(abs, rhs)) < _EXACT_INT64_LIMIT
    aug = np.zeros((n_rows + 1, k + 1), dtype=np.int64 if small else object)
    aug[cols, np.arange(k)[:, None]] = 1
    aug[n_rows, :k] = 1
    aug[:, k] = rhs

    pivot_rows: list[int] = []
    used = np.zeros(n_rows + 1, dtype=bool)
    prev = 1
    for col in range(k):
        free = np.flatnonzero((aug[:, col] != 0) & ~used)
        if free.size == 0:
            return None  # dependent columns; fall back to float weights
        r = int(free[0])
        used[r] = True
        pivot_rows.append(r)
        pivot, pivot_row = aug[r, col], aug[r].copy()
        aug = (pivot * aug - np.outer(aug[:, col], pivot_row)) // prev
        aug[r] = pivot_row
        prev = int(pivot)
        if aug.dtype != object and np.abs(aug).max() >= _EXACT_INT64_LIMIT:
            aug = aug.astype(object)  # keep products inside int64 or go exact
    if (aug[~used, k] != 0).any():
        return None  # inconsistent on this support
    scale = prev * denom
    w = [Fraction(int(aug[r, k]), scale) for r in pivot_rows]
    if any(x < 0 for x in w) or sum(w) != 1:
        return None
    # confirm against the full system
    recon = [Fraction(0)] * n_rows
    for j in range(k):
        if w[j] == 0:
            continue
        for r in cols[j]:
            recon[int(r)] += w[j]
    if recon != fracs:
        return None
    return w


def find_local_model(
    target: CorrelationTable, topology: CommTopology
) -> LocalModel | Infeasible:
    """Search for a strategy mixture reproducing ``target`` exactly.

    The search is a linear feasibility problem whose columns are the
    distinct tables the deterministic strategies induce: strategies
    with the same table are one vertex of the polytope, so each table
    enters once, represented by its lowest-numbered strategy (which
    keeps the returned models deterministic).  It is solved by column
    generation (:func:`_phase_one`): a restricted phase-1 master LP
    that minimises the target's residual over a few columns, priced
    against every distinct table by its duals each round, so the LP
    stays a small fraction of the strategy space.  When the residual
    reaches zero the master's support is polished to exact rational
    weights whenever the target snaps to small rationals (all
    Pauli-alphabet tables do); when no column prices out first, the
    last duals are the separating inequality, whose bound is re-taken
    over every distinct table, hence every strategy.  One LP family
    answers both ways.

    The solver's freed working memory goes back to the operating system
    before the call returns (:func:`_release_freed_heap`).
    """
    try:
        return _search_local_model(target, topology)
    finally:
        _release_freed_heap()


def _release_freed_heap() -> None:
    """Return the C heap's free pages to the operating system.

    HiGHS builds its working copies of a large LP (over 100 MB for the
    2**18-column singlet search) on the C heap and frees them when
    ``linprog`` returns, but glibc keeps freed pages resident until the
    top of the heap is free.  Any small allocation that outlives the
    solve and lands above them pins them all, and whether one does
    varies from run to run, so a process running several searches
    would keep or drop the whole solve's pages by chance, and the next
    search stacks on top of what it keeps.  ``malloc_trim(0)`` releases
    every free page wherever it lies.  A no-op where the C library has
    no such call.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def _search_local_model(
    target: CorrelationTable, topology: CommTopology
) -> LocalModel | Infeasible:
    alphabets = target.alphabets
    layout = _strategy_layout(target.parties, tuple(len(a) for a in alphabets), topology)
    outcomes = _outcome_rows(layout)
    n_profiles = outcomes.shape[1]
    n_rows = n_profiles << target.parties
    t = table_vector(target)

    # one column per distinct table, kept as its lowest-numbered strategy
    col_ids = _distinct_tables(outcomes, target.parties)
    tables = outcomes[col_ids]
    del outcomes  # not held through the LP solves
    # column j is 1 on row offsets[i] + tables[j, i] of every profile i
    offsets = np.arange(n_profiles, dtype=np.int64) << target.parties

    master, w, y = _phase_one(tables, offsets, np.append(t, 1.0))
    if w is None:
        # the duals are a Farkas certificate; its bound is re-taken over
        # every distinct table, hence every strategy
        coefficients = -y[:n_rows]
        bound = float(_scores(coefficients, tables, offsets).min())
        violation = bound - float(coefficients @ t)
        if violation <= 1e-9:
            raise QsimError("separation margin vanished; table may be feasible after all")
        return Infeasible(coefficients=coefficients, bound=bound, violation=violation)

    # the normalisation row keeps the weights' sum at 1, so some are positive
    keep = w > 1e-10
    support, w_sup = master[keep], w[keep]

    cols = tables[support] + offsets
    fracs = _snap_dyadic(t)
    if fracs is not None:
        exact = _solve_exact_support(cols, fracs, n_rows)
        if exact is not None:
            kept = [(int(col_ids[j]), x) for j, x in zip(support, exact) if x != 0]
            return LocalModel(
                strategies=tuple(layout.strategy(s) for s, _ in kept),
                weights=tuple(float(x) for _, x in kept),
                topology=topology,
                alphabets=alphabets,
                exact_weights=tuple(x for _, x in kept),
            )

    w_sup = w_sup / w_sup.sum()
    recon = np.zeros(n_rows)
    np.add.at(recon, cols.ravel(), np.repeat(w_sup, n_profiles))
    if np.max(np.abs(recon - t)) > 1e-9:
        raise QsimError("feasible LP solution fails reconstruction at 1e-9")
    return LocalModel(
        strategies=tuple(layout.strategy(int(s)) for s in col_ids[support]),
        weights=tuple(float(x) for x in w_sup),
        topology=topology,
        alphabets=alphabets,
        exact_weights=None,
    )


def _scores(y: np.ndarray, tables: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``y[tables + offsets].sum(axis=1)``, a bounded block of tables at
    a time.  Each table's sum is the same reduction of the same row as
    over all tables at once, so the scores are equal bit for bit."""
    out = np.empty(len(tables))
    step = max(1, _BLOCK // tables.shape[1])
    for first in range(0, len(tables), step):
        out[first : first + step] = y[tables[first : first + step] + offsets].sum(axis=1)
    return out


def _phase_one(
    tables: np.ndarray, offsets: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Column generation on the phase-1 LP over the distinct tables.

    Column j is 1 on rows ``tables[j] + offsets``; the last row of
    ``b`` is the normalisation row, which every column meets.  The
    master minimises ``1.(s+ + s-)`` subject to ``A_S w + s+ - s- = b``
    with ``w, s >= 0`` over a growing column set S, so its duals ``y``
    lie in [-1, 1].  It starts with the slacks alone, whose duals are
    ``[b > 0]``.  Each round prices every column outside S by
    ``y . A_j`` (:func:`_scores`) and adds at most ``2 * len(b)`` of those above 1e-9,
    best first, ties to the lowest column index so that identical calls
    build identical masters; the master is then re-solved.

    Returns ``(S, w, y)``.  Once the master optimum reaches zero the
    target lies in the hull, and w holds the weights of the columns S,
    both in column order.  Once no column prices out first, w is None
    and y the last duals: no column has ``y . A_j > 1e-9`` while
    ``y . b`` is the positive optimum, so ``-y`` separates the target
    from every column.
    """
    # scipy is imported here, not at module level: it is only needed by
    # the LP, and importing it costs every other command ~0.6 s.
    from scipy.optimize import linprog
    from scipy.sparse import csc_matrix

    n_cols, n_profiles = tables.shape
    n_eq = b.size
    slack_rows = np.tile(np.arange(n_eq), 2)
    slack_data = np.repeat([1.0, -1.0], n_eq)
    master = np.empty(0, dtype=np.int64)
    in_master = np.zeros(n_cols, dtype=bool)
    y = (b > 0).astype(np.float64)
    while True:
        score = _scores(y, tables, offsets) + y[-1]
        score[in_master] = -np.inf
        new = np.flatnonzero(score > 1e-9)
        if new.size == 0:
            return master, None, y
        new = new[np.lexsort((new, -score[new]))][: 2 * n_eq]
        master = np.concatenate([master, new])
        in_master[new] = True
        k = master.size
        rows = np.column_stack([tables[master] + offsets, np.full(k, n_eq - 1)]).ravel()
        a_eq = csc_matrix(
            (
                np.concatenate([np.ones(rows.size), slack_data]),
                np.concatenate([rows, slack_rows]),
                np.concatenate(
                    [np.arange(0, rows.size, n_profiles + 1), rows.size + np.arange(2 * n_eq + 1)]
                ),
            ),
            shape=(n_eq, k + 2 * n_eq),
        )
        cost = np.concatenate([np.zeros(k), np.ones(2 * n_eq)])
        res = linprog(cost, A_eq=a_eq, b_eq=b, bounds=(0, None), method="highs")
        if res.status != 0:
            raise QsimError(f"phase-1 master LP did not converge: {res.message}")
        if res.fun <= 1e-9:
            order = np.argsort(master)
            return master[order], res.x[:k][order], y
        y = res.eqlin.marginals


# ---------------------------------------------------------------------------
# Shot-by-shot execution


@dataclass(frozen=True, eq=False)
class SimulationReport:
    empirical: CorrelationTable
    bits_used_per_shot: int


def simulate_model(model: LocalModel, shots: int, seed: int) -> SimulationReport:
    """Sample the model: per shot, draw a strategy (shared randomness)
    and a uniform profile, and look up that strategy's outputs on that
    profile in its :func:`_outcome_rows` row.  Every message costs one
    bit whatever its content, so bits_used_per_shot equals the topology
    budget exactly.

    The draw contract: one seeded stream gives first every shot's
    strategy, as ``rng.choice(len(model.strategies), shots, p=weights /
    sum(weights))`` draws it (one uniform per shot, in shot order), then
    every shot's setting of party 0 as ``rng.integers(0, m_0, shots)``,
    then party 1's, and so on.  Invalid strategies (see
    :class:`DeterministicStrategy`) raise ``ValueError`` before any draw.

    The draws are made a bounded block of shots at a time.  A strategy
    is read off its uniform through a table of the strategy at each
    bucket's start, corrected upward past the few cumulative weights
    inside the bucket, and each party's setting folds into one narrow
    (strategy, profile) index per shot as it is drawn; those indices are
    counted, and the counts mapped through the strategy rows.  Memory is
    that index, one to eight bytes a shot, plus the blocks and the
    model's tables.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    rows = _strategy_rows(model.strategies, model.topology, model.alphabets)
    rng = stream(seed)
    parties = len(model.alphabets)
    n_strategies, n_profiles = rows.shape

    p = np.asarray(model.weights, dtype=np.float64)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    # rng.choice picks the number of cdf entries at most u.  Bucket g of
    # [0, 1) starts with the pick for g / n_buckets; with four or more
    # buckets per strategy a draw passes at most 1/4 of an entry inside
    # its bucket on average, however the weights cluster
    n_buckets = 4 << (n_strategies - 1).bit_length()
    bucket_pick = cdf.searchsorted(np.arange(n_buckets) / n_buckets, side="right")
    pairs = np.empty(shots, dtype=np.min_scalar_type(n_strategies * n_profiles - 1))
    for first in range(0, shots, _BLOCK):
        u = rng.random(min(_BLOCK, shots - first))
        pick = bucket_pick[(u * n_buckets).astype(np.intp)]
        up = np.flatnonzero(cdf[pick] <= u)
        while up.size:
            pick[up] += 1
            up = up[cdf[pick[up]] <= u[up]]
        pairs[first : first + _BLOCK] = pick
    for m in (len(a) for a in model.alphabets):
        for first in range(0, shots, _BLOCK):
            block = pairs[first : first + _BLOCK]
            block[...] = rng.integers(0, m, size=block.size) + block * np.intp(m)

    # pairs hold k * n_profiles + profile; each counting block spans at
    # least as many shots as there are pairs, so counting is linear in both
    pair_counts = np.zeros(n_strategies * n_profiles, dtype=np.int64)
    step = max(_BLOCK, pair_counts.size)
    for first in range(0, shots, step):
        pair_counts += np.bincount(pairs[first : first + step], minlength=pair_counts.size)
    size = 1 << parties
    cells = (rows + (np.arange(n_profiles, dtype=np.int64) * size)).ravel()
    counts = np.bincount(cells, weights=pair_counts, minlength=n_profiles * size)
    counts = counts.reshape(n_profiles, size)
    per_profile = counts.sum(axis=1)
    if (per_profile == 0).any():
        raise ValueError("a profile received no shots; increase the shot count")
    freq = counts / per_profile[:, None]
    return SimulationReport(
        empirical=_table_from_matrix(model.alphabets, freq),
        bits_used_per_shot=model.topology.budget,
    )
