"""qsim: a two-backend quantum circuit simulator and locality laboratory.

The dense backend (:mod:`qsim.statevector`) evolves full amplitude
vectors and handles every gate including oracles; the tableau backend
(:mod:`qsim.stabilizer`) simulates the Clifford/measurement fragment in
polynomial time.  :mod:`qsim.lhv` asks when measurement statistics
admit classical explanations with a fixed communication budget, and
:mod:`qsim.bench` measures the exponential-versus-polynomial split.

``__all__`` is the API that README's "Python API" section lists; every
other name stays importable from its own module.  The command line is
:mod:`qsim.cli`, which this package does not import.
"""

from .circuit import (
    BooleanFunction,
    Circuit,
    Measure,
    PauliAxis,
    classify_gottesman_knill,
    deutsch,
    gk_entangler,
    validate,
)
from .lang import format_circuit, parse_circuit
from .rng import stream
from .statevector import BlochAxis, equal_up_to_global_phase, evolve
from .statevector import run as run_statevector
from .stabilizer import apply_clifford, init_tableau, measure_pauli, to_statevector
from .stabilizer import run as run_stabilizer
from .lhv import (
    PAULI_ALPHABET,
    CommTopology,
    Infeasible,
    chsh_sweep,
    chsh_value,
    enumerate_strategies,
    find_local_model,
    ghz_state,
    mermin_correlators,
    quantum_table,
    simulate_model,
    singlet_state,
    strategy_table,
    table_vector,
)
from .bench import bench_scaling, dispatch_run, random_clifford_circuit

__version__ = "0.1.0"

__all__ = [
    "BlochAxis",
    "BooleanFunction",
    "Circuit",
    "CommTopology",
    "Infeasible",
    "Measure",
    "PAULI_ALPHABET",
    "PauliAxis",
    "apply_clifford",
    "bench_scaling",
    "chsh_sweep",
    "chsh_value",
    "classify_gottesman_knill",
    "deutsch",
    "dispatch_run",
    "enumerate_strategies",
    "equal_up_to_global_phase",
    "evolve",
    "find_local_model",
    "format_circuit",
    "ghz_state",
    "gk_entangler",
    "init_tableau",
    "measure_pauli",
    "mermin_correlators",
    "parse_circuit",
    "quantum_table",
    "random_clifford_circuit",
    "run_stabilizer",
    "run_statevector",
    "simulate_model",
    "singlet_state",
    "strategy_table",
    "stream",
    "table_vector",
    "to_statevector",
    "validate",
]
