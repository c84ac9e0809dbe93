"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the public functions of each qsim layer from the
outside: it looks each one up, then rebinds every name in every loaded
``qsim`` module (and the package itself) that holds that same function
object, so calls between modules and inside one module are all seen.
``scipy.optimize.linprog`` is wrapped in ``scipy.optimize`` itself and
before qsim is imported, so that ``from scipy.optimize import linprog``
-- eager or lazy -- binds the wrapper.  ``restore`` puts every original
back.  A function that no longer exists is listed in ``absent`` and its
metrics read 0.

A span is ``[name, start, end, parent, job, counts]``; spans stay in
memory and are written out once, at the end of the run.  Self time is a
span's duration minus the durations of its child spans (calls are
sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

from oracle import strategy_count


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self.absent: list[str] = []
        self.stab_circuits: list[tuple[int | None, object]] = []
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, object]] = []  # (wrapper, original)
        self._bindings: list[tuple[object, str, object]] = []  # (namespace, name, original)

    def wrap(self, name: str, fn, hook=None):
        """A function that records a span around ``fn`` and returns
        exactly what ``fn`` returns.  ``hook(recorder, args, kwargs,
        result)`` may return counts to attach to the span; it runs after
        the span ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if hook is not None:
                span[5] = hook(self, args, kwargs, result)
            return result

        self._wrappers.append((wrapper, fn))
        return wrapper

    def install(self, module_name: str, attr: str, name: str, hook=None) -> None:
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapper = self.wrap(name, original, hook)
        namespaces = [module] + [m for m in qsim_modules() if m is not module]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._bindings.append((ns, key, original))

    def restore(self) -> None:
        """Put every original back, including bindings made after
        ``install`` (a lazy ``from scipy.optimize import linprog``)."""
        for ns, key, original in reversed(self._bindings):
            setattr(ns, key, original)
        originals = {id(w): fn for w, fn in self._wrappers}
        for ns in qsim_modules():
            for key, value in list(vars(ns).items()):
                if id(value) in originals:
                    setattr(ns, key, originals[id(value)])
        self._bindings.clear()
        self._wrappers.clear()


def qsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qsim" or n.startswith("qsim."))]


# ---------------------------------------------------------------------------
# What is wrapped, and the counts read at each boundary


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _n_measures(circuit) -> int:
    return sum(type(op).__name__ == "Measure" for op in circuit.ops)


def _parse(rec, a, k, result):
    return {"lines": len(_arg(a, k, 0, "text").splitlines())}


def _write(rec, a, k, result):
    path = _arg(a, k, 2, "path")
    return {"bytes": os.path.getsize(path) if path else 0}


def _dispatch(rec, a, k, result):
    return {f"auto_{result.backend}": 1} if _arg(a, k, 3, "backend") is None else {}


def _uniforms(rec, a, k, result):
    return {"draws": _arg(a, k, 1, "shots") * _arg(a, k, 2, "draws_per_shot")}


def _dense_run(rec, a, k, result):
    c, shots = _arg(a, k, 0, "circuit"), _arg(a, k, 1, "shots")
    return {"shots": shots, "measurements": shots * _n_measures(c),
            "amp_ops": shots * len(c.ops) * (1 << c.n_qubits), "outcomes": len(result.counts)}


def _tableau_run(rec, a, k, result):
    c, shots = _arg(a, k, 0, "circuit"), _arg(a, k, 1, "shots")
    rec.stab_circuits.append((rec.job, c))
    conditioned = sum(getattr(op, "condition", None) is not None for op in c.ops)
    return {"shots": shots, "measurements": shots * _n_measures(c),
            "conditioned": conditioned, "outcomes": len(result.counts)}


def _find(rec, a, k, result):
    target, topology = _arg(a, k, 0, "target"), _arg(a, k, 1, "topology")
    strategies = strategy_count([len(x) for x in target.alphabets], topology.messages)
    infeasible = int(hasattr(result, "coefficients"))
    return {"strategies": strategies, "infeasible": infeasible,
            "feasible_strategies": 0 if infeasible else strategies,
            "support": 0 if infeasible else len(result.strategies),
            "exact": int(getattr(result, "exact_weights", None) is not None)}


def _linprog(rec, a, k, result):
    a_ub, a_eq = _arg(a, k, 1, "A_ub"), _arg(a, k, 3, "A_eq")
    if a_eq is not None:
        columns = a_eq.shape[1]
    elif a_ub is not None:  # the separating LP: one constraint row per strategy
        columns = a_ub.shape[0]
    else:
        columns = len(_arg(a, k, 0, "c"))
    return {"iterations": int(getattr(result, "nit", 0) or 0), "columns": columns}


# (module, function, span name, hook)
LINPROG = ("scipy.optimize", "linprog", "lhv.lp_solve", _linprog)
TARGETS = (
    ("qsim.cli", "cli_dispatch", "cli", None),
    ("qsim.cli", "write_report", "cli.write_report", _write),
    ("qsim.lang", "parse_circuit", "lang.parse", _parse),
    ("qsim.circuit", "validate", "circuit.validate", None),
    ("qsim.circuit", "classify_gottesman_knill", "circuit.classify", None),
    ("qsim.bench", "dispatch_run", "bench.dispatch", _dispatch),
    ("qsim.rng", "shot_uniforms", "rng.shot_uniforms", _uniforms),
    ("qsim.statevector", "run", "statevector.run", _dense_run),
    ("qsim.statevector", "evolve", "statevector.evolve", None),
    ("qsim.statevector", "joint_probabilities", "statevector.joint_probabilities", None),
    ("qsim.stabilizer", "run", "stabilizer.run", _tableau_run),
    ("qsim.lhv", "quantum_table", "lhv.quantum_table", None),
    ("qsim.lhv", "find_local_model", "lhv.find", _find),
    ("qsim.lhv", "simulate_model", "lhv.simulate", None),
    ("qsim.lhv", "chsh_sweep", "lhv.chsh_sweep", None),
)


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def coverage(spans, latencies) -> list[float]:
    """Per job, the share of its wall time that top-level spans cover."""
    covered = [0.0] * len(latencies)
    for s in spans:
        if s[3] is None and s[4] is not None:
            covered[s[4]] += s[2] - s[1]
    return [c / t for c, t in zip(covered, latencies)]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# name -> unit; the order is the order of the report
LAYER_UNITS = {
    "import.qsim_cli_s": "s",
    "import.scipy_loaded": "flag",
    "cli.self_s": "s/job",
    "cli.write_report_s": "s/job",
    "cli.output_bytes": "B/job",
    "lang.parse_s": "s/job",
    "lang.lines": "count/job",
    "circuit.validate_s": "s/job",
    "circuit.validate_calls": "count/job",
    "circuit.classify_s": "s/job",
    "circuit.classify_calls": "count/job",
    "bench.dispatch_sv": "count/job",
    "bench.dispatch_stab": "count/job",
    "rng.shot_uniforms_s": "s/job",
    "rng.draws": "count/job",
    "rng.bytes": "B/job",
    "statevector.run_self_s": "s/job",
    "statevector.shots": "count/job",
    "statevector.measurements": "count/job",
    "statevector.amp_ops": "count/job",
    "statevector.history_ratio": "ratio",
    "statevector.evolve_s": "s/job",
    "statevector.joint_probabilities_s": "s/job",
    "statevector.joint_probabilities_calls": "count/job",
    "stabilizer.run_self_s": "s/job",
    "stabilizer.shots": "count/job",
    "stabilizer.measurements": "count/job",
    "stabilizer.conditioned_gates": "count/job",
    "stabilizer.distinct_outcomes": "count/job",
    "stabilizer.determined_share": "ratio",
    "lhv.quantum_table_s": "s/job",
    "lhv.find_self_s": "s/job",
    "lhv.lp_solve_s": "s/job",
    "lhv.lp_solves": "count/job",
    "lhv.lp_iterations": "count/job",
    "lhv.lp_columns": "count/job",
    "lhv.strategies": "count/job",
    "lhv.useful_ratio": "ratio",
    "lhv.exact_models": "count/job",
    "lhv.infeasible": "count/job",
    "lhv.simulate_s": "s/job",
    "lhv.chsh_sweep_s": "s/job",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def layer_metrics(spans, n_jobs: int) -> dict[str, float]:
    """Per-layer metrics of the traced phase, per job where the unit
    says so.  ``import.*``, ``trace.*`` and ``stabilizer.determined_share``
    are filled in by the caller."""
    spans = [s for s in spans if s[4] is not None]
    own = self_times(spans)
    dur: dict[str, float] = {}
    selft: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], float] = {}
    for s, st in zip(spans, own):
        dur[s[0]] = dur.get(s[0], 0.0) + s[2] - s[1]
        selft[s[0]] = selft.get(s[0], 0.0) + st
        calls[s[0]] = calls.get(s[0], 0) + 1
        for key, v in (s[5] or {}).items():
            counts[s[0], key] = counts.get((s[0], key), 0) + v

    def per(x):
        return _ratio(x, n_jobs)

    def c(name, key):
        return counts.get((name, key), 0)

    return {
        "cli.self_s": per(selft.get("cli", 0.0)),
        "cli.write_report_s": per(dur.get("cli.write_report", 0.0)),
        "cli.output_bytes": per(c("cli.write_report", "bytes")),
        "lang.parse_s": per(dur.get("lang.parse", 0.0)),
        "lang.lines": per(c("lang.parse", "lines")),
        "circuit.validate_s": per(dur.get("circuit.validate", 0.0)),
        "circuit.validate_calls": per(calls.get("circuit.validate", 0)),
        "circuit.classify_s": per(dur.get("circuit.classify", 0.0)),
        "circuit.classify_calls": per(calls.get("circuit.classify", 0)),
        "bench.dispatch_sv": per(c("bench.dispatch", "auto_sv")),
        "bench.dispatch_stab": per(c("bench.dispatch", "auto_stab")),
        "rng.shot_uniforms_s": per(dur.get("rng.shot_uniforms", 0.0)),
        "rng.draws": per(c("rng.shot_uniforms", "draws")),
        "rng.bytes": per(8 * c("rng.shot_uniforms", "draws")),
        "statevector.run_self_s": per(selft.get("statevector.run", 0.0)),
        "statevector.shots": per(c("statevector.run", "shots")),
        "statevector.measurements": per(c("statevector.run", "measurements")),
        "statevector.amp_ops": per(c("statevector.run", "amp_ops")),
        "statevector.history_ratio": _ratio(c("statevector.run", "outcomes"),
                                            c("statevector.run", "shots")),
        "statevector.evolve_s": per(dur.get("statevector.evolve", 0.0)),
        "statevector.joint_probabilities_s": per(dur.get("statevector.joint_probabilities", 0.0)),
        "statevector.joint_probabilities_calls": per(calls.get("statevector.joint_probabilities", 0)),
        "stabilizer.run_self_s": per(selft.get("stabilizer.run", 0.0)),
        "stabilizer.shots": per(c("stabilizer.run", "shots")),
        "stabilizer.measurements": per(c("stabilizer.run", "measurements")),
        "stabilizer.conditioned_gates": per(c("stabilizer.run", "conditioned")),
        "stabilizer.distinct_outcomes": per(c("stabilizer.run", "outcomes")),
        "lhv.quantum_table_s": per(dur.get("lhv.quantum_table", 0.0)),
        "lhv.find_self_s": per(selft.get("lhv.find", 0.0)),
        "lhv.lp_solve_s": per(dur.get("lhv.lp_solve", 0.0)),
        "lhv.lp_solves": per(calls.get("lhv.lp_solve", 0)),
        "lhv.lp_iterations": per(c("lhv.lp_solve", "iterations")),
        "lhv.lp_columns": per(c("lhv.lp_solve", "columns")),
        "lhv.strategies": per(c("lhv.find", "strategies")),
        "lhv.useful_ratio": _ratio(c("lhv.find", "support"), c("lhv.find", "feasible_strategies")),
        "lhv.exact_models": per(c("lhv.find", "exact")),
        "lhv.infeasible": per(c("lhv.find", "infeasible")),
        "lhv.simulate_s": per(dur.get("lhv.simulate", 0.0)),
        "lhv.chsh_sweep_s": per(dur.get("lhv.chsh_sweep", 0.0)),
    }
