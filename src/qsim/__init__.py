"""qsim: a two-backend quantum circuit simulator and locality laboratory.

The dense backend (:mod:`qsim.statevector`) evolves full amplitude
vectors and handles every gate including oracles; the tableau backend
(:mod:`qsim.stabilizer`) simulates the Clifford/measurement fragment in
polynomial time.  :mod:`qsim.lhv` asks when measurement statistics
admit classical explanations with a fixed communication budget, and
:mod:`qsim.bench` measures the exponential-versus-polynomial split.
"""

from .circuit import (
    BooleanFunction,
    Circuit,
    CircuitOp,
    GateApp,
    GateKind,
    GKReport,
    Measure,
    OracleApp,
    PauliAxis,
    Violation,
    build_library_circuit,
    classify_gottesman_knill,
    deutsch,
    gate_matrix,
    ghz,
    gk_entangler,
    oracle_step,
    validate,
)
from .errors import (
    ArityMismatch,
    DegenerateNorm,
    IndexOutOfRange,
    MalformedHeader,
    NonClifford,
    ParseError,
    QsimError,
    TooManyQubits,
    TooManyStrategies,
    UndefinedConditionBit,
    UnknownGate,
    UnknownProfile,
)
from .lang import format_circuit, parse_circuit
from .rng import RNG_ID, shot_uniforms, stream
from .result import RunResult
from .statevector import (
    BlochAxis,
    MeasureOutcome,
    MeasurementSpec,
    PureState,
    apply_op,
    equal_up_to_global_phase,
    evolve,
    init_state,
    joint_probabilities,
    measure,
    project,
)
from .statevector import run as run_statevector
from .stabilizer import (
    Tableau,
    TableauMeasurement,
    apply_clifford,
    init_tableau,
    measure_pauli,
    to_statevector,
)
from .stabilizer import run as run_stabilizer
from .lhv import (
    PAULI_ALPHABET,
    CommTopology,
    CorrelationTable,
    DeterministicStrategy,
    Infeasible,
    LocalModel,
    SimulationReport,
    StrategyEnumeration,
    chsh_sweep,
    chsh_value,
    correlator,
    enumerate_strategies,
    find_local_model,
    ghz_state,
    index_outcomes,
    mermin_correlators,
    model_table,
    outcome_index,
    quantum_table,
    signalling_deficit,
    simulate_model,
    singlet_pauli_lhv,
    singlet_state,
    strategy_table,
    table_vector,
)
from .bench import (
    BACKENDS,
    BenchReport,
    BenchRow,
    bench_scaling,
    dispatch_run,
    random_clifford_circuit,
)

__version__ = "0.1.0"

# The command-line names load ``qsim.cli`` on first use, so that
# ``python -m qsim.cli`` does not find the module already imported.
_CLI_NAMES = frozenset({"cli_dispatch", "main", "model_from_json", "model_to_json", "write_report"})


def __getattr__(name: str):
    if name == "cli" or name in _CLI_NAMES:
        import importlib

        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _CLI_NAMES)


__all__ = [
    "ArityMismatch",
    "BACKENDS",
    "BenchReport",
    "BenchRow",
    "BlochAxis",
    "BooleanFunction",
    "Circuit",
    "CircuitOp",
    "CommTopology",
    "CorrelationTable",
    "DegenerateNorm",
    "DeterministicStrategy",
    "GKReport",
    "GateApp",
    "GateKind",
    "IndexOutOfRange",
    "Infeasible",
    "LocalModel",
    "MalformedHeader",
    "Measure",
    "MeasureOutcome",
    "MeasurementSpec",
    "NonClifford",
    "OracleApp",
    "PAULI_ALPHABET",
    "ParseError",
    "PauliAxis",
    "PureState",
    "QsimError",
    "RNG_ID",
    "RunResult",
    "SimulationReport",
    "StrategyEnumeration",
    "Tableau",
    "TableauMeasurement",
    "TooManyQubits",
    "TooManyStrategies",
    "UndefinedConditionBit",
    "UnknownGate",
    "UnknownProfile",
    "Violation",
    "apply_clifford",
    "apply_op",
    "bench_scaling",
    "build_library_circuit",
    "chsh_sweep",
    "chsh_value",
    "classify_gottesman_knill",
    "cli_dispatch",
    "correlator",
    "deutsch",
    "dispatch_run",
    "enumerate_strategies",
    "equal_up_to_global_phase",
    "evolve",
    "find_local_model",
    "format_circuit",
    "gate_matrix",
    "ghz",
    "ghz_state",
    "gk_entangler",
    "index_outcomes",
    "init_state",
    "init_tableau",
    "joint_probabilities",
    "main",
    "measure",
    "measure_pauli",
    "mermin_correlators",
    "model_from_json",
    "model_table",
    "model_to_json",
    "oracle_step",
    "outcome_index",
    "parse_circuit",
    "project",
    "quantum_table",
    "random_clifford_circuit",
    "run_stabilizer",
    "run_statevector",
    "shot_uniforms",
    "signalling_deficit",
    "simulate_model",
    "singlet_pauli_lhv",
    "singlet_state",
    "strategy_table",
    "stream",
    "table_vector",
    "to_statevector",
    "validate",
    "write_report",
]
