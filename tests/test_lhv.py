"""Correlation tables, inequality functionals, strategy enumeration,
LP model search, and shot-by-shot model execution."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import lhv
from qsim.circuit import PauliAxis
from qsim.errors import TooManyStrategies, UnknownProfile
from qsim.lhv import (
    PAULI_ALPHABET,
    CommTopology,
    CorrelationTable,
    DeterministicStrategy,
    Infeasible,
    LocalModel,
    chsh_sweep,
    chsh_value,
    correlator,
    enumerate_strategies,
    find_local_model,
    ghz_state,
    index_outcomes,
    mermin_correlators,
    model_table,
    quantum_table,
    simulate_model,
    singlet_state,
    strategy_table,
    table_vector,
)
from qsim.rng import stream
from qsim.statevector import BlochAxis, init_state

X, Y, Z = PauliAxis.X, PauliAxis.Y, PauliAxis.Z

NO_COMM_2 = CommTopology(2, ())
NO_COMM_3 = CommTopology(3, ())


def outcome_index(outcomes: tuple[int, ...]) -> int:
    """Pack a tuple of +1/-1 outcomes into the canonical row index."""
    idx = 0
    for o in outcomes:
        idx = (idx << 1) | (1 if o == -1 else 0)
    return idx


def prob(table, profile, outcomes):
    return float(table.dists[profile][outcome_index(outcomes)])


def signalling_deficit(table: CorrelationTable) -> float:
    """Largest change in any party's marginal when only the OTHER
    parties' settings vary.  Zero (to rounding) for quantum tables."""
    parties = table.parties
    worst = 0.0
    for p in range(parties):
        idx = np.arange(1 << parties)
        plus_mask = ((idx >> (parties - 1 - p)) & 1) == 0
        groups: dict[tuple, list[float]] = {}
        for profile in table.profiles():
            marginal = float(table._dist(profile)[plus_mask].sum())
            groups.setdefault((profile[p],), []).append(marginal)
        # regroup: same own setting, marginal should not depend on the rest
        for vals in groups.values():
            worst = max(worst, max(vals) - min(vals))
    return worst


def singlet_pauli_lhv() -> LocalModel:
    """The communication-free model reproducing the singlet's Pauli
    statistics: a shared sign for each axis, answered directly by one
    party and negated by the other — eight equally weighted strategies.
    """
    strategies = []
    for lam in itertools.product((1, -1), repeat=3):
        a_out = tuple((lam[i],) for i in range(3))
        b_out = tuple((-lam[i],) for i in range(3))
        strategies.append(DeterministicStrategy((a_out, b_out), ()))
    eighth = Fraction(1, 8)
    return LocalModel(
        strategies=tuple(strategies),
        weights=(0.125,) * 8,
        topology=NO_COMM_2,
        alphabets=(PAULI_ALPHABET, PAULI_ALPHABET),
        exact_weights=(eighth,) * 8,
    )


@pytest.fixture(scope="module")
def singlet_pauli_table():
    return quantum_table(singlet_state(), (PAULI_ALPHABET, PAULI_ALPHABET))


@pytest.fixture(scope="module")
def ghz_pauli_table():
    return quantum_table(ghz_state(), (PAULI_ALPHABET,) * 3)


@pytest.fixture(scope="module")
def ghz_bit_model(ghz_pauli_table):
    model = find_local_model(ghz_pauli_table, CommTopology(3, ((1, 0),)))
    assert isinstance(model, LocalModel)
    return model


# ---------------------------------------------------------------------------
# Outcome indexing and tables


@pytest.mark.parametrize(
    "outcomes,idx",
    [((1, 1), 0), ((1, -1), 1), ((-1, 1), 2), ((-1, -1), 3), ((-1, 1, -1), 5)],
)
def test_outcome_index_frozen(outcomes, idx):
    assert outcome_index(outcomes) == idx
    assert index_outcomes(idx, len(outcomes)) == outcomes


def test_table_validates_normalization():
    bad = {(Z, Z): np.array([0.7, 0.2, 0.2, 0.2])}
    with pytest.raises(ValueError):
        CorrelationTable(((Z,), (Z,)), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_probabilities(bad):
    dist = np.array([0.5, 0.0, 0.0, 0.5])
    dist[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        CorrelationTable(((Z,), (Z,)), {(Z, Z): dist})


def test_unknown_profile_raises(singlet_pauli_table):
    with pytest.raises(UnknownProfile):
        singlet_pauli_table._dist((BlochAxis(0.1, 0.2), Z))
    with pytest.raises(UnknownProfile):
        correlator(singlet_pauli_table, (Z, BlochAxis(0.0, 0.0)))


def test_product_state_table():
    table = quantum_table(init_state(2), ((Z,), (Z,)))
    assert prob(table, (Z, Z), (1, 1)) == 1.0
    assert correlator(table, (Z, Z)) == 1.0


def test_singlet_pauli_joints(singlet_pauli_table):
    # equal axes anticorrelate; unequal axes are uniform
    for a, b in itertools.product(PAULI_ALPHABET, repeat=2):
        e = correlator(singlet_pauli_table, (a, b))
        want = -1.0 if a == b else 0.0
        assert abs(e - want) < 1e-12
    assert abs(prob(singlet_pauli_table, (Z, Z), (1, -1)) - 0.5) < 1e-12
    assert prob(singlet_pauli_table, (Z, Z), (1, 1)) < 1e-12


def test_singlet_bloch_cosine_law():
    # equatorial settings: E = -cos(azimuth difference)
    state = singlet_state()
    for da in (0.0, 0.3, 1.1, 2.5):
        a = BlochAxis(math.pi / 2, 0.0)
        b = BlochAxis(math.pi / 2, da)
        table = quantum_table(state, ((a,), (b,)))
        assert abs(correlator(table, (a, b)) + math.cos(da)) < 1e-10


def test_table_vector_layout(singlet_pauli_table):
    vec = table_vector(singlet_pauli_table)
    assert vec.shape == (36,)
    # first block is the (X, X) distribution
    assert np.allclose(vec[:4], [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_signalling_deficit_quantum_tables(singlet_pauli_table, ghz_pauli_table):
    assert signalling_deficit(singlet_pauli_table) < 1e-10
    assert signalling_deficit(ghz_pauli_table) < 1e-10


def test_signalling_deficit_detects_signalling():
    # party 1 announces party 0's setting: marginal shifts by 1
    alphabets = ((X, Y), (Z,))
    dists = {
        (X, Z): np.array([1.0, 0.0, 0.0, 0.0]),
        (Y, Z): np.array([0.0, 1.0, 0.0, 0.0]),
    }
    assert signalling_deficit(CorrelationTable(alphabets, dists)) == 1.0


# ---------------------------------------------------------------------------
# CHSH and Mermin functionals


def test_chsh_needs_two_parties(ghz_pauli_table):
    with pytest.raises(ValueError):
        chsh_value(ghz_pauli_table, X, Y, X, Y)


def test_pauli_settings_cap_chsh_at_two(singlet_pauli_table):
    best = 0.0
    for a, a2, b, b2 in itertools.product(PAULI_ALPHABET, repeat=4):
        best = max(best, abs(chsh_value(singlet_pauli_table, a, a2, b, b2)))
    assert abs(best - 2.0) < 1e-9
    assert best <= 2.0 + 1e-9


def test_chsh_sweep_matches_closed_form():
    points = chsh_sweep(24)
    assert len(points) == 25
    for t, s in points:
        assert abs(s - (math.cos(3 * t) - 3 * math.cos(t))) < 1e-9
    values = [s for _, s in points]
    assert abs(points[0][1] + 2.0) < 1e-9
    assert abs(max(abs(v) for v in values) - 2.0 * math.sqrt(2.0)) < 1e-6


def test_chsh_sweep_rejects_zero_steps():
    with pytest.raises(ValueError):
        chsh_sweep(0)


def test_mermin_correlators_ghz(ghz_pauli_table):
    got = mermin_correlators(ghz_pauli_table)
    assert np.allclose(got, (1.0, -1.0, -1.0, -1.0), atol=1e-12)


def test_mermin_needs_three_parties(singlet_pauli_table):
    with pytest.raises(ValueError):
        mermin_correlators(singlet_pauli_table)


def test_deterministic_strategies_cannot_negate_mermin_product():
    # every strategy's four parity correlators multiply to +1, because
    # each party's X and Y rows both appear an even number of times;
    # the GHZ point (1, -1, -1, -1) multiplies to -1
    alphabets = ((X, Y),) * 3
    for strat in enumerate_strategies(3, (2, 2, 2), NO_COMM_3):
        table = strategy_table(strat, NO_COMM_3, alphabets)
        m = (
            correlator(table, (X, X, X))
            * correlator(table, (X, Y, Y))
            * correlator(table, (Y, X, Y))
            * correlator(table, (Y, Y, X))
        )
        assert m == 1.0


# ---------------------------------------------------------------------------
# Topologies and strategy enumeration


def test_topology_validation():
    with pytest.raises(ValueError):
        CommTopology(1, ())
    with pytest.raises(ValueError):
        CommTopology(2, ((0, 0),))
    with pytest.raises(ValueError):
        CommTopology(2, ((0, 2),))
    assert CommTopology(3, ((1, 0), (2, 0))).budget == 2


@pytest.mark.parametrize(
    "parties,sizes,messages,count",
    [
        (2, (3, 3), (), 64),
        (3, (3, 3, 3), (), 512),
        (3, (3, 3, 3), ((1, 0),), 32768),
        (2, (2, 2), (), 16),
    ],
)
def test_enumeration_counts_frozen(parties, sizes, messages, count):
    strategies = enumerate_strategies(parties, sizes, CommTopology(parties, messages))
    assert len(strategies) == count


def test_enumeration_cap():
    with pytest.raises(TooManyStrategies):
        enumerate_strategies(2, (11, 11), NO_COMM_2)


def test_strategy_zero_answers_all_plus():
    strat = enumerate_strategies(2, (3, 3), NO_COMM_2)[0]
    table = strategy_table(strat, NO_COMM_2, (PAULI_ALPHABET, PAULI_ALPHABET))
    for profile in table.profiles():
        assert prob(table, profile, (1, 1)) == 1.0
    assert chsh_value(table, X, Y, X, Y) == 2.0


def test_strategy_tables_are_deterministic():
    for strat in enumerate_strategies(2, (2, 2), NO_COMM_2):
        table = strategy_table(strat, NO_COMM_2, ((X, Y), (X, Y)))
        for profile in table.profiles():
            dist = [prob(table, profile, index_outcomes(i, 2)) for i in range(4)]
            assert sorted(dist) == [0.0, 0.0, 0.0, 1.0]


def test_message_actually_reaches_receiver():
    # sender (party 1) forwards its setting bit; receiver (party 0)
    # echoes the received bit as its outcome sign
    topo = CommTopology(2, ((1, 0),))
    outputs = (
        # party 0: any setting, outcome -1 iff received bit is 1
        ((1, -1), (1, -1)),
        # party 1: always +1, never receives
        ((1,), (1,)),
    )
    messages = (((0,), (1,)),)  # bit = sender's setting index
    table = strategy_table(
        DeterministicStrategy(outputs, messages), topo, ((X, Y), (X, Y))
    )
    assert prob(table, (X, X), (1, 1)) == 1.0
    assert prob(table, (X, Y), (-1, 1)) == 1.0
    assert prob(table, (Y, Y), (-1, 1)) == 1.0


def test_evaluators_reject_invalid_strategies():
    topo = CommTopology(2, ((1, 0),))
    alphabets = ((X, Y), (X, Y))
    good = enumerate_strategies(2, (2, 2), topo)[5]
    zero_output = DeterministicStrategy(
        ((good.outputs[0][0], (0, 1)), good.outputs[1]), good.messages
    )
    no_message = DeterministicStrategy(good.outputs, ())
    for bad in (zero_output, no_message):
        with pytest.raises(ValueError):
            strategy_table(bad, topo, alphabets)
        model = LocalModel((good, bad), (0.5, 0.5), topo, alphabets)
        with pytest.raises(ValueError):
            model_table(model)
        with pytest.raises(ValueError):
            simulate_model(model, 100, seed=0)


# ---------------------------------------------------------------------------
# One evaluator: _outcome_rows against a reference that follows the
# delivery rules in CommTopology's docstring

EVALUATOR_STRATEGY_CAP = 1 << 14


def reference_outcome(strategy, topology, setting_idx) -> int:
    """Outcome index of one strategy on one profile: messages go out in
    topology order, each sender answering from its setting and the bits
    it received before, and every party then answers from its setting
    and its full record (first arrival = bit 0)."""
    rec = [0] * topology.parties
    seen = [0] * topology.parties
    for k, (snd, rcv) in enumerate(topology.messages):
        rec[rcv] |= strategy.messages[k][setting_idx[snd]][rec[snd]] << seen[rcv]
        seen[rcv] += 1
    return outcome_index(tuple(strategy.outputs[p][a][rec[p]] for p, a in enumerate(setting_idx)))


@st.composite
def evaluator_instances(draw):
    parties = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=parties, max_size=parties))
    pair = st.tuples(st.integers(0, parties - 1), st.integers(0, parties - 1))
    messages = draw(st.lists(pair.filter(lambda m: m[0] != m[1]), max_size=2))
    if len(messages) == 2 and draw(st.booleans()):
        # a relay: the first message's receiver sends the second
        relay = messages[0][1]
        messages[1] = (relay, draw(st.sampled_from([p for p in range(parties) if p != relay])))
    topology = CommTopology(parties, tuple(messages))
    while lhv._CellLayout(parties, tuple(sizes), topology).count > EVALUATOR_STRATEGY_CAP:
        sizes[sizes.index(max(sizes))] -= 1
    layout = lhv._CellLayout(parties, tuple(sizes), topology)
    numbers = draw(st.lists(st.integers(0, layout.count - 1), min_size=1, max_size=4))
    return layout, numbers


@settings(max_examples=150, deadline=None)
@given(evaluator_instances())
def test_outcome_rows_agree_with_reference(instance):
    layout, numbers = instance
    topology = layout.topology
    alphabets = tuple(PAULI_ALPHABET[:m] for m in layout.sizes)
    profiles = list(itertools.product(*(range(m) for m in layout.sizes)))
    rows = lhv._outcome_rows(layout)
    for s in numbers:
        strat = layout.strategy(s)
        want = [reference_outcome(strat, topology, idx) for idx in profiles]
        assert rows[s].tolist() == want
        table = table_vector(strategy_table(strat, topology, alphabets)).reshape(len(profiles), -1)
        assert table.sum() == len(profiles)
        assert (table[np.arange(len(profiles)), want] == 1.0).all()
        # strategy -> cells -> strategy number is the identity
        cells = layout.cells([strat])
        assert cells.shape == (1, layout.n_cells)
        assert int("".join(map(str, cells[0])), 2) == s
    explicit = lhv._outcome_rows(layout, layout.cells([layout.strategy(s) for s in numbers]))
    assert explicit.dtype == rows.dtype
    assert (explicit == rows[numbers]).all()


def test_explicit_strategies_with_many_received_bits():
    # party 0 receives nine bits and then sends one: more received-bit
    # patterns than one np.choose call takes, and records wider than uint8
    topology = CommTopology(2, ((1, 0),) * 9 + ((0, 1),))
    alphabets = ((X, Y), (X, Y, Z))
    layout = lhv._CellLayout(2, (2, 3), topology)
    rng = np.random.default_rng(5)
    profiles = list(itertools.product(range(2), range(3)))
    for _ in range(3):
        strat = layout.strategy(int("".join(map(str, rng.integers(0, 2, layout.n_cells))), 2))
        want = [reference_outcome(strat, topology, idx) for idx in profiles]
        table = table_vector(strategy_table(strat, topology, alphabets)).reshape(len(profiles), -1)
        assert table.argmax(axis=1).tolist() == want


# ---------------------------------------------------------------------------
# Local models


def test_local_model_validation():
    strat = enumerate_strategies(2, (3, 3), NO_COMM_2)[0]
    alph = (PAULI_ALPHABET, PAULI_ALPHABET)
    with pytest.raises(ValueError):
        LocalModel((strat,), (0.5, 0.5), NO_COMM_2, alph)
    with pytest.raises(ValueError):
        LocalModel((strat,), (0.7,), NO_COMM_2, alph)
    with pytest.raises(ValueError):
        LocalModel((strat, strat), (1.5, -0.5), NO_COMM_2, alph)
    with pytest.raises(ValueError):
        LocalModel(
            (strat,), (1.0,), NO_COMM_2, alph, exact_weights=(Fraction(1, 2),)
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_local_model_rejects_non_finite_weights(bad):
    strat = enumerate_strategies(2, (3, 3), NO_COMM_2)[0]
    alph = (PAULI_ALPHABET, PAULI_ALPHABET)
    for weights in [(bad, 1.0), (1.0, bad), (bad, bad)]:
        with pytest.raises(ValueError, match="finite"):
            LocalModel((strat, strat), weights, NO_COMM_2, alph)


def test_hand_built_singlet_model_matches_quantum(singlet_pauli_table):
    model = singlet_pauli_lhv()
    assert len(model.strategies) == 8
    assert model.topology.budget == 0
    got = model_table(model, exact=True)
    for profile in singlet_pauli_table.profiles():
        for i in range(4):
            out = index_outcomes(i, 2)
            assert abs(
                prob(got, profile, out) - prob(singlet_pauli_table, profile, out)
            ) < 1e-12


def test_model_table_exact_needs_exact_weights():
    strat = enumerate_strategies(2, (3, 3), NO_COMM_2)[0]
    model = LocalModel(
        (strat,), (1.0,), NO_COMM_2, (PAULI_ALPHABET, PAULI_ALPHABET)
    )
    with pytest.raises(ValueError):
        model_table(model, exact=True)


# ---------------------------------------------------------------------------
# LP search


def max_table_error(a: CorrelationTable, b: CorrelationTable) -> float:
    return float(np.max(np.abs(table_vector(a) - table_vector(b))))


def test_find_singlet_model_without_communication(singlet_pauli_table):
    model = find_local_model(singlet_pauli_table, NO_COMM_2)
    assert isinstance(model, LocalModel)
    assert model.exact_weights is not None
    got = model_table(model, exact=True)
    # exact weights give clean dyadic entries; the only residue left is
    # the float dust in the quantum table itself
    assert max_table_error(got, singlet_pauli_table) < 1e-12
    assert prob(got, (Z, Z), (1, -1)) == 0.5


def test_find_singlet_model_deduped(singlet_pauli_table):
    # the LP has one column per distinct strategy table, so no two
    # strategies in the model induce the same table
    model = find_local_model(singlet_pauli_table, NO_COMM_2)
    assert isinstance(model, LocalModel)
    tables = {
        table_vector(strategy_table(s, model.topology, model.alphabets)).tobytes()
        for s in model.strategies
    }
    assert len(tables) == len(model.strategies)
    assert max_table_error(model_table(model), singlet_pauli_table) <= 1e-9


def test_ghz_needs_communication(ghz_pauli_table):
    verdict = find_local_model(ghz_pauli_table, NO_COMM_3)
    assert isinstance(verdict, Infeasible)
    assert verdict.violation > 1e-9
    # re-verify the certificate against every strategy column
    y, bound = verdict.coefficients, verdict.bound
    worst = math.inf
    for strat in enumerate_strategies(3, (3, 3, 3), NO_COMM_3):
        table = strategy_table(strat, NO_COMM_3, (PAULI_ALPHABET,) * 3)
        worst = min(worst, float(y @ table_vector(table)))
    assert worst >= bound - 1e-9
    assert float(y @ table_vector(ghz_pauli_table)) <= bound - verdict.violation + 1e-9


def test_every_search_releases_the_freed_heap(monkeypatch, singlet_pauli_table, ghz_pauli_table):
    # the solver's freed pages go back to the operating system whether
    # the search finds a model, a certificate or stops with an error
    lhv._release_freed_heap()
    calls = []
    monkeypatch.setattr(lhv, "_release_freed_heap", lambda: calls.append(None))
    assert isinstance(find_local_model(singlet_pauli_table, NO_COMM_2), LocalModel)
    assert isinstance(find_local_model(ghz_pauli_table, NO_COMM_3), Infeasible)
    monkeypatch.setattr(lhv, "_MAX_STRATEGIES", 1)
    with pytest.raises(TooManyStrategies):
        find_local_model(singlet_pauli_table, NO_COMM_2)
    assert len(calls) == 3


def test_one_bit_restores_ghz(ghz_pauli_table, ghz_bit_model):
    assert ghz_bit_model.topology.budget == 1
    if ghz_bit_model.exact_weights is not None:
        got = model_table(ghz_bit_model, exact=True)
    else:
        got = model_table(ghz_bit_model)
    assert max_table_error(got, ghz_pauli_table) <= 1e-9


def test_pauli_targets_polish_to_exact_weights(ghz_pauli_table, ghz_bit_model):
    assert ghz_bit_model.exact_weights is not None
    assert max_table_error(model_table(ghz_bit_model, exact=True), ghz_pauli_table) < 1e-12
    xy = (X, Y)
    ghz4 = quantum_table(ghz_state(4), (xy,) * 4)
    model = find_local_model(ghz4, CommTopology(4, ((1, 0), (2, 0))))
    assert isinstance(model, LocalModel)
    assert model.exact_weights is not None
    assert max_table_error(model_table(model, exact=True), ghz4) < 1e-12


def test_exact_polish_beyond_int64_denominators():
    # party 1's three marginals have prime denominators whose product,
    # the targets' common denominator, is above 2**31, so the polish
    # runs in Python ints
    primes = (4093, 4091, 4079)
    alphabets = ((Z,), PAULI_ALPHABET)
    dists = {
        (Z, b): np.array([1 / q, 1 - 1 / q, 0.0, 0.0]) for b, q in zip(PAULI_ALPHABET, primes)
    }
    target = CorrelationTable(alphabets, dists)
    model = find_local_model(target, NO_COMM_2)
    assert isinstance(model, LocalModel)
    assert model.exact_weights is not None
    got = model_table(model, exact=True)
    for b, q in zip(PAULI_ALPHABET, primes):
        assert prob(got, (Z, b), (1, 1)) == float(Fraction(1, q))


def test_exact_polish_switches_to_python_ints(monkeypatch, ghz_pauli_table, ghz_bit_model):
    # with a limit below every target the polish runs in Python ints
    # from the start, and gives the same weights
    monkeypatch.setattr(lhv, "_EXACT_INT64_LIMIT", 2)
    model = find_local_model(ghz_pauli_table, CommTopology(3, ((1, 0),)))
    assert model.exact_weights == ghz_bit_model.exact_weights
    assert model.strategies == ghz_bit_model.strategies


class _OuterSpy:
    """numpy as ``lhv`` sees it, except that ``outer`` records the dtype
    of its first operand: one elimination step's pivot column."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def outer(self, a, b):
        self.dtypes.append(a.dtype)
        return np.outer(a, b)


def test_exact_polish_switches_to_python_ints_mid_elimination(monkeypatch):
    # The targets scale to 4, 4 and 2 over their denominator 5, and the
    # sum row to 5, all below a limit of 6: the elimination starts in int64.  Its second step
    # makes an entry of 6, so the last step runs in Python ints, and the
    # weights are the same.  (A Pauli GHZ search cannot show this: its
    # entries never outgrow the common denominator.)
    cols = np.array([[0, 2], [1, 2], [0, 1]])
    fracs = [Fraction(4, 5), Fraction(4, 5), Fraction(2, 5)]
    want = [Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)]
    assert lhv._solve_exact_support(cols, fracs, 3) == want
    spy = _OuterSpy()
    monkeypatch.setattr(lhv, "_EXACT_INT64_LIMIT", 6)
    monkeypatch.setattr(lhv, "np", spy)
    assert lhv._solve_exact_support(cols, fracs, 3) == want
    assert spy.dtypes == [np.int64, np.int64, object]


def test_dependent_support_columns_fall_back():
    # two equal columns leave the second without a pivot: no exact
    # weights, so the caller keeps the LP's float weights
    fracs = [Fraction(1), Fraction(0), Fraction(1)]
    cols = np.array([[0, 2], [0, 2]])
    assert lhv._solve_exact_support(cols[:1], fracs, 3) == [Fraction(1)]
    assert lhv._solve_exact_support(cols, fracs, 3) is None


# ---------------------------------------------------------------------------
# Distinct tables and their pricing


def reference_distinct(outcomes):
    """The lowest row of each distinct table, ascending: np.unique over a
    void view sorts stably when asked for indices."""
    keys = outcomes.view(np.dtype((np.void, outcomes.shape[1] * outcomes.itemsize))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


@st.composite
def enumerated_outcomes(draw):
    """Outcome rows of a whole enumeration, up to 4 parties and 64
    profiles: tables up to 256 bits wide, so keys of one to four words."""
    parties = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 8), min_size=parties, max_size=parties))
    pair = st.tuples(st.integers(0, parties - 1), st.integers(0, parties - 1))
    messages = draw(st.lists(pair.filter(lambda m: m[0] != m[1]), max_size=2))
    topology = CommTopology(parties, tuple(messages))
    while (lhv._CellLayout(parties, tuple(sizes), topology).count > 1 << 13
           or math.prod(sizes) > 64):
        sizes[sizes.index(max(sizes))] -= 1
    return parties, lhv._outcome_rows(lhv._CellLayout(parties, tuple(sizes), topology))


@st.composite
def random_outcomes(draw):
    """Rows drawn from a few distinct ones, up to 12 parties, so uint16
    entries past 8 parties and keys of up to 10 words."""
    parties = draw(st.integers(1, 12))
    n_profiles = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dtype = np.min_scalar_type((1 << parties) - 1)
    pool = rng.integers(0, 1 << parties, (draw(st.integers(1, 20)), n_profiles)).astype(dtype)
    picks = rng.integers(0, len(pool), draw(st.integers(1, 300)))
    return parties, np.ascontiguousarray(pool[picks])


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(enumerated_outcomes(), random_outcomes()), block=st.integers(1, 200))
def test_distinct_tables_match_void_unique(case, block):
    parties, outcomes = case
    want = reference_distinct(outcomes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lhv, "_BLOCK", block)
        assert np.array_equal(lhv._distinct_tables(outcomes, parties), want)
    assert np.array_equal(lhv._distinct_tables(outcomes, parties), want)


@settings(max_examples=60, deadline=None)
@given(case=random_outcomes(), block=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_block_scores_equal_whole_matrix_sums(case, block, seed):
    # each table's score is bitwise the per-row sum over all tables at
    # once, whatever the block, so ties decide the same masters
    parties, tables = case
    offsets = np.arange(tables.shape[1], dtype=np.int64) << parties
    y = np.random.default_rng(seed).standard_normal((tables.shape[1] << parties) + 1)
    want = y[tables.astype(np.int64) + offsets].sum(axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lhv, "_BLOCK", block)
        assert lhv._scores(y, tables, offsets).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Column generation: one LP family, small masters, known results


def certificate_minimum(verdict, parties, sizes, topology):
    """min over every enumerated strategy of coefficients . T(s), with
    each strategy's table evaluated from its number and the documented
    cell order, vectorised over strategy numbers (no table is stored)."""
    layout = lhv._CellLayout(parties, sizes, topology)
    s = np.arange(layout.count, dtype=np.int64)

    def bit(cell):
        return (s >> (layout.n_cells - 1 - cell)) & 1

    y = verdict.coefficients.reshape(-1, 1 << parties)
    total = np.zeros(layout.count)
    for i, idx in enumerate(itertools.product(*(range(m) for m in sizes))):
        rec = [np.zeros_like(s) for _ in range(parties)]
        for k, (snd, rcv) in enumerate(topology.messages):
            rec[rcv] |= bit(layout.msg_cell(k, idx[snd], rec[snd])) << layout.arrival[k]
        outcome = np.zeros_like(s)
        for p in range(parties):
            outcome |= bit(layout.out_cell(p, idx[p], rec[p])) << (parties - 1 - p)
        total += y[i][outcome]
    return float(total.min())


def test_certificate_minimum_matches_strategy_tables():
    # the vectorised evaluator above agrees with the reference tables
    # (party 0 relays a bit it received, so both message paths count)
    topology = CommTopology(3, ((2, 0), (0, 1)))
    verdict = Infeasible(np.random.default_rng(3).standard_normal(2 * 8), 0.0, 1.0)
    _, tables = strategy_tables(topology, ((X,), (X, Y), (X,)))
    got = certificate_minimum(verdict, 3, (1, 2, 1), topology)
    assert got == pytest.approx(float((tables @ verdict.coefficients).min()), abs=1e-12)


@pytest.mark.parametrize("messages", [(), ((1, 0),)], ids=["0bit", "1bit"])
def test_ghz4_pauli_is_infeasible(monkeypatch, messages):
    # GHZ4 with Pauli settings admits no model without communication, nor
    # with one bit from party 1 to party 0 (2**18 strategies); with the bit,
    # the masters that decide it stay a small fraction of the 90 112
    # distinct tables (without it, one round's 2 * 1297 columns decide it)
    import scipy.optimize

    table = quantum_table(ghz_state(4), (PAULI_ALPHABET,) * 4)
    topology = CommTopology(4, messages)
    rows = lhv._outcome_rows(lhv._strategy_layout(4, (3,) * 4, topology))
    n_tables = len(np.unique(rows, axis=0))

    masters = []
    real = scipy.optimize.linprog

    def spy(c, *args, **kwargs):
        masters.append(len(c) - 2 * kwargs["A_eq"].shape[0])  # minus the slack pairs
        return real(c, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    verdict = find_local_model(table, topology)
    assert masters
    if messages:
        assert n_tables == 90_112
        assert max(masters) <= n_tables // 8
    assert isinstance(verdict, Infeasible)
    assert verdict.violation > 1e-9
    low = certificate_minimum(verdict, 4, (3,) * 4, topology)
    assert low >= verdict.bound - 1e-9
    assert float(verdict.coefficients @ table_vector(table)) <= verdict.bound - verdict.violation + 1e-9


def test_one_lp_family_answers_both_ways(monkeypatch, ghz_pauli_table):
    # models and certificates both come from equality-form phase-1
    # masters; no inequality-form separation LP is solved
    import scipy.optimize

    calls = []
    real = scipy.optimize.linprog

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    assert isinstance(find_local_model(ghz_pauli_table, NO_COMM_3), Infeasible)
    assert isinstance(find_local_model(ghz_pauli_table, CommTopology(3, ((1, 0),))), LocalModel)
    assert calls
    for kwargs in calls:
        assert kwargs.get("A_ub") is None and kwargs.get("b_ub") is None
        assert kwargs["A_eq"] is not None


def test_singlet_equatorial_one_bit_model_from_small_masters(monkeypatch):
    # Toner-Bacon: one bit reproduces the singlet on finite Bloch
    # alphabets; the masters stay under half of the 27 136 distinct tables
    import scipy.optimize

    alice = tuple(BlochAxis(math.pi / 2, k * math.pi / 2) for k in range(4))
    bob = tuple(BlochAxis(math.pi / 2, k * math.pi / 2 + math.pi / 4) for k in range(4))
    table = quantum_table(singlet_state(), (alice, bob))
    topology = CommTopology(2, ((1, 0),))
    rows = lhv._outcome_rows(lhv._strategy_layout(2, (4, 4), topology))
    n_tables = len(np.unique(rows, axis=0))
    assert n_tables == 27_136

    masters = []
    real = scipy.optimize.linprog

    def spy(c, *args, **kwargs):
        masters.append(len(c) - 2 * kwargs["A_eq"].shape[0])  # minus the slack pairs
        return real(c, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    model = find_local_model(table, topology)
    assert isinstance(model, LocalModel)
    assert max_table_error(model_table(model), table) <= 1e-9
    assert masters and max(masters) <= n_tables // 2


# ---------------------------------------------------------------------------
# Differential check: the LP over distinct tables against a reference LP
# with one column per enumerated strategy

REFERENCE_STRATEGY_CAP = 1024


def strategy_tables(topology, alphabets):
    """Every enumerated strategy and the table vector it induces, by the
    reference delivery rules (:func:`reference_outcome`)."""
    strategies = list(enumerate_strategies(topology.parties, [len(a) for a in alphabets], topology))
    profiles = list(itertools.product(*(range(len(a)) for a in alphabets)))
    size = 1 << topology.parties
    tables = np.zeros((len(strategies), len(profiles) * size))
    for j, strat in enumerate(strategies):
        for i, idx in enumerate(profiles):
            tables[j, i * size + reference_outcome(strat, topology, idx)] = 1.0
    return strategies, tables


def reference_feasible(tables, target) -> bool:
    from scipy.optimize import linprog

    a_eq = np.vstack([tables.T, np.ones(len(tables))])
    b_eq = np.append(table_vector(target), 1.0)
    res = linprog(
        np.zeros(len(tables)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    assert res.status in (0, 2)
    return res.status == 0


@st.composite
def lp_instances(draw):
    parties = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=parties, max_size=parties))
    pair = st.tuples(st.integers(0, parties - 1), st.integers(0, parties - 1))
    messages = draw(st.lists(pair.filter(lambda m: m[0] != m[1]), max_size=2))
    topology = CommTopology(parties, tuple(messages))
    while True:  # shrink the largest alphabet until the reference LP stays small
        try:
            count = len(enumerate_strategies(parties, sizes, topology))
        except TooManyStrategies:
            count = math.inf
        if count <= REFERENCE_STRATEGY_CAP:
            break
        sizes[sizes.index(max(sizes))] -= 1
    alphabets = tuple(PAULI_ALPHABET[:m] for m in sizes)
    picks = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(picks), max_size=len(picks)))
    perturb = draw(st.sampled_from((0, 1, 2)))  # in quarters
    points = draw(
        st.lists(st.integers(0, (1 << parties) - 1), min_size=math.prod(sizes),
                 max_size=math.prod(sizes))
    )
    return topology, alphabets, picks, weights, perturb / 4, points


@settings(max_examples=60, deadline=None)
@given(lp_instances())
def test_find_local_model_agrees_with_reference_lp(instance):
    topology, alphabets, picks, weights, eps, points = instance
    strategies, tables = strategy_tables(topology, alphabets)
    # a mixture of strategy tables, optionally pulled towards a random
    # point table that is often outside the polytope
    mix = sum(w * tables[i] for i, w in zip(picks, weights)) / sum(weights)
    point = np.zeros((len(points), 1 << topology.parties))
    point[np.arange(len(points)), points] = 1.0
    vec = (1 - eps) * mix + eps * point.ravel()
    target = CorrelationTable(
        alphabets,
        {prof: vec[i * point.shape[1]:(i + 1) * point.shape[1]]
         for i, prof in enumerate(itertools.product(*alphabets))},
    )

    verdict = find_local_model(target, topology)
    assert isinstance(verdict, LocalModel) == reference_feasible(tables, target)
    if eps == 0:
        assert isinstance(verdict, LocalModel)
    if isinstance(verdict, LocalModel):
        assert max_table_error(model_table(verdict), target) <= 1e-9
        if verdict.exact_weights is not None:
            assert max_table_error(model_table(verdict, exact=True), target) <= 1e-9
        # each model strategy is the lowest-numbered one with its table
        first = {}
        for i, row in enumerate(tables):
            first.setdefault(row.tobytes(), i)
        for strat in verdict.strategies:
            i = strategies.index(strat)
            assert first[tables[i].tobytes()] == i
    else:
        y = verdict.coefficients
        assert verdict.violation > 1e-9
        assert float((tables @ y).min()) >= verdict.bound - 1e-9
        assert float(y @ vec) <= verdict.bound - verdict.violation + 1e-9


# ---------------------------------------------------------------------------
# Shot-by-shot execution


def test_simulate_singlet_model():
    report = simulate_model(singlet_pauli_lhv(), 100_000, seed=11)
    assert report.bits_used_per_shot == 0
    table = report.empirical
    for a in PAULI_ALPHABET:
        assert abs(correlator(table, (a, a)) + 1.0) < 1e-12
    for a, b in itertools.product(PAULI_ALPHABET, repeat=2):
        if a != b:
            assert abs(correlator(table, (a, b))) < 0.05


def test_simulate_model_is_seed_deterministic():
    a = simulate_model(singlet_pauli_lhv(), 2000, seed=3)
    b = simulate_model(singlet_pauli_lhv(), 2000, seed=3)
    assert max_table_error(a.empirical, b.empirical) == 0.0


def test_simulate_ghz_bit_model_reproduces_mermin(ghz_bit_model):
    report = simulate_model(ghz_bit_model, 100_000, seed=19)
    assert report.bits_used_per_shot == 1
    got = mermin_correlators(report.empirical)
    assert np.allclose(got, (1.0, -1.0, -1.0, -1.0), atol=1e-12)


def test_seeded_bytes_are_pinned(ghz_bit_model):
    # the strategy semantics, the draw order and the order of the float
    # sums all feed these digests, so they hold across versions
    def digest(table):
        return hashlib.sha256(table_vector(table).tobytes()).hexdigest()

    report = simulate_model(ghz_bit_model, 20_000, seed=5)
    assert digest(report.empirical) == (
        "fd4af750ebbe3d6b5c63eaaf43692f6d5ab9e43972ee1446b7afaabd6113400d"
    )
    assert digest(model_table(ghz_bit_model)) == (
        "17d5d84c79d4e471db67194f4046058c8aee1afec80c7cec2c29ae760f45890c"
    )
    assert digest(model_table(singlet_pauli_lhv())) == (
        "40037d315d49b5f170b051503f96350595c2ac24604c4f6fef5ce0cde847529e"
    )


_EQUATORIAL_3 = tuple(BlochAxis(math.pi / 2, a) for a in (0.0, math.pi / 3, 2 * math.pi / 3))
_PINNED_TABLES = {
    "ghz3-pauli": (lambda: quantum_table(ghz_state(3), (PAULI_ALPHABET,) * 3),
                   "770b8d79603d2be26b4cb5b772d8fe8f61b20f9b45fc2bd94772d0e6d17f43fa"),
    "ghz3-equatorial": (lambda: quantum_table(ghz_state(3), (_EQUATORIAL_3,) * 3),
                        "1e336f91817c508c50a048022ff3ead835263f0f5c5619a0b12af6d18d60c24c"),
    "ghz4-xy": (lambda: quantum_table(ghz_state(4), ((X, Y),) * 4),
                "1d51f0473b1c4d3d4ac60268d8906f1b940d6be1d95f6c29faac273f0e5ba478"),
    "singlet-4x4": (
        lambda: quantum_table(
            singlet_state(),
            (
                tuple(BlochAxis(math.pi / 2, k * math.pi / 2) for k in range(4)),
                tuple(BlochAxis(math.pi / 2, k * math.pi / 2 + math.pi / 4) for k in range(4)),
            ),
        ),
        "6bc58594c61aec89c195f133ee30b88def2b238b300bfa42c5e63d152d74b7bb",
    ),
    "ghz5-pauli": (lambda: quantum_table(ghz_state(5), (PAULI_ALPHABET,) * 5),
                   "9302c1ece32a18ee2143da72136b136db9c6a6d1ca1279e7252c51db283c00b7"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_TABLES))
def test_quantum_table_bytes_are_pinned(name):
    # every float of the tables the locality workloads solve; the LP and
    # its exact polish see exactly these bits
    build, digest = _PINNED_TABLES[name]
    assert hashlib.sha256(table_vector(build()).tobytes()).hexdigest() == digest


def test_simulate_model_needs_enough_shots():
    with pytest.raises(ValueError):
        simulate_model(singlet_pauli_lhv(), 0, seed=0)
    with pytest.raises(ValueError):
        # nine profiles cannot all be hit by one shot
        simulate_model(singlet_pauli_lhv(), 1, seed=0)


def reference_simulate(model, shots, seed):
    """The sampler as first written, one array per shot: rng.choice with
    the weights, each party's settings, ravel_multi_index, a gather from
    the strategy rows and a bincount; the empirical table as a matrix."""
    rows = lhv._strategy_rows(model.strategies, model.topology, model.alphabets)
    rng = stream(seed)
    parties = len(model.alphabets)
    sizes = tuple(len(a) for a in model.alphabets)

    p = np.asarray(model.weights, dtype=np.float64)
    p = p / p.sum()
    strat = rng.choice(len(model.strategies), size=shots, p=p)
    settings = [rng.integers(0, sizes[q], size=shots) for q in range(parties)]

    prof_idx = np.ravel_multi_index(settings, sizes)
    out_bits = rows[strat, prof_idx]

    n_profiles = rows.shape[1]
    size = 1 << parties
    counts = np.bincount(prof_idx * size + out_bits, minlength=n_profiles * size)
    counts = counts.reshape(n_profiles, size).astype(np.float64)
    per_profile = counts.sum(axis=1)
    if (per_profile == 0).any():
        raise ValueError("a profile received no shots; increase the shot count")
    return counts / per_profile[:, None]


@st.composite
def sampled_models(draw):
    """A model of up to 100 strategies over a small topology, some weights
    near 0 or exactly 0, and a shot count with a block size that need not
    divide it."""
    parties = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=parties, max_size=parties))
    pair = st.tuples(st.integers(0, parties - 1), st.integers(0, parties - 1))
    messages = draw(st.lists(pair.filter(lambda m: m[0] != m[1]), max_size=1))
    topology = CommTopology(parties, tuple(messages))
    layout = lhv._CellLayout(parties, tuple(sizes), topology)
    while layout.count > 1 << 14:
        sizes[sizes.index(max(sizes))] -= 1
        layout = lhv._CellLayout(parties, tuple(sizes), topology)
    k = draw(st.integers(1, 100))
    numbers = draw(st.lists(st.integers(0, layout.count - 1), min_size=k, max_size=k))
    weight = st.one_of(st.floats(0.01, 1.0), st.sampled_from([0.0, 1e-300, 1e-17, 1e-9]))
    raw = draw(st.lists(weight, min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
    weights = tuple(w / math.fsum(raw) for w in raw)
    model = LocalModel(
        strategies=tuple(layout.strategy(s) for s in numbers),
        weights=weights,
        topology=topology,
        alphabets=tuple(PAULI_ALPHABET[:m] for m in sizes),
    )
    shots = draw(st.one_of(st.integers(1, 3000), st.integers(40_000, 70_000)))
    block = draw(st.one_of(st.just(lhv._BLOCK), st.integers(1, 700)))
    return model, shots, block


@settings(max_examples=80, deadline=None)
@given(case=sampled_models(), seed=st.integers(0, 2**32 - 1))
def test_simulate_model_matches_reference_bit_for_bit(case, seed):
    model, shots, block = case
    try:
        want = reference_simulate(model, shots, seed)
    except ValueError:
        want = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lhv, "_BLOCK", block)
        if want is None:
            with pytest.raises(ValueError, match="no shots"):
                simulate_model(model, shots, seed)
            return
        report = simulate_model(model, shots, seed)
    assert table_vector(report.empirical).tobytes() == want.tobytes()
    assert report.bits_used_per_shot == model.topology.budget


def test_simulate_model_memory_does_not_hold_arrays_per_shot(ghz_bit_model):
    # one narrow (strategy, profile) index per shot, under 16 bytes a shot
    # plus the blocks; one int64 array per shot and party, a uniform and a
    # gather made it about 49 bytes a shot (9.4 MiB here)
    shots = 200_000
    tracemalloc.start()
    try:
        simulate_model(ghz_bit_model, shots, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * shots + (2 << 20)
