"""Scaling benchmarks: random Clifford workloads, timed runs, growth fits.

The point of the harness is the shape of the curve, not absolute
speed: the dense backend must look exponential in qubit count and the
tableau backend polynomial.  Timing wraps the simulation call only —
circuit generation and report assembly are excluded — and every point
is the median of three runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .circuit import Circuit, GateApp, GateKind, classify_gottesman_knill
from .errors import QsimError
from .rng import stream
from .result import RunResult
from .statevector import run as run_dense
from .stabilizer import run as run_tableau

BACKENDS = ("sv", "stab")

_ONE_QUBIT_KINDS = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.R, GateKind.H)


@dataclass(frozen=True)
class BenchRow:
    n: int
    depth: int
    shots: int
    seconds: float


@dataclass(frozen=True)
class BenchReport:
    """Timed scaling rows plus a growth descriptor.

    For the dense backend ``growth`` is the mean log2 time ratio per
    added qubit; for the tableau backend it is the fitted slope of
    log(time) against log(n).  Fewer than two rows gives None.
    """

    backend: str
    rows: tuple[BenchRow, ...]
    growth: float | None

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if ns != sorted(ns):
            raise ValueError("rows must be sorted by qubit count")
        if any(r.seconds <= 0 for r in self.rows):
            raise ValueError("times must be positive")


def random_clifford_circuit(n: int, depth: int, seed: int) -> Circuit:
    """Exactly ``depth`` gates drawn uniformly from the six Clifford
    kinds (single-qubit ones on a random qubit, CNOT on a random
    ordered distinct pair).  Deterministic for a fixed seed."""
    if n < 2:
        raise ValueError("need at least two qubits")
    if depth < 1:
        raise ValueError("depth must be positive")
    rng = stream(seed)
    ops = []
    for _ in range(depth):
        k = int(rng.integers(6))
        if k < 5:
            ops.append(GateApp(_ONE_QUBIT_KINDS[k], (int(rng.integers(n)),)))
        else:
            c = int(rng.integers(n))
            t = int(rng.integers(n - 1))
            if t >= c:
                t += 1
            ops.append(GateApp(GateKind.CNOT, (c, t)))
    return Circuit(n_qubits=n, n_cbits=0, ops=tuple(ops))


def dispatch_run(
    circuit: Circuit, shots: int, seed: int, backend: str | None = None
) -> RunResult:
    """Run on the named backend, or pick one: tableau whenever the
    circuit stays inside the stabilizer fragment, dense otherwise."""
    if backend is None:
        backend = "stab" if classify_gottesman_knill(circuit).is_gk else "sv"
    if backend == "sv":
        return run_dense(circuit, shots, seed)
    if backend == "stab":
        return run_tableau(circuit, shots, seed)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def _median3(values: list[float]) -> float:
    return sorted(values)[1]


def bench_scaling(
    backend: str,
    n_values,
    depth: int,
    shots: int,
    seed: int,
    depth_scale: str = "fixed",
) -> BenchReport:
    """Time one random-circuit run per qubit count (median of three).

    ``depth_scale="linear"`` grows the depth proportionally to n from
    its value at the smallest n — the workload under which the tableau
    backend's log-log slope is meaningful.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if depth_scale not in ("fixed", "linear"):
        raise ValueError("depth_scale must be 'fixed' or 'linear'")
    ns = sorted(set(int(n) for n in n_values))
    if not ns:
        return BenchReport(backend=backend, rows=(), growth=None)
    rows = []
    for n in ns:
        d = depth if depth_scale == "fixed" else max(1, round(depth * n / ns[0]))
        circuit = random_clifford_circuit(n, d, seed)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            dispatch_run(circuit, shots, seed, backend)
            times.append(time.perf_counter() - t0)
        rows.append(BenchRow(n=n, depth=d, shots=shots, seconds=_median3(times)))
    return BenchReport(backend=backend, rows=tuple(rows), growth=_growth(backend, rows))


def _growth(backend: str, rows: list[BenchRow]) -> float | None:
    if len(rows) < 2:
        return None
    if backend == "sv":
        ratios = [
            math.log2(b.seconds / a.seconds) / (b.n - a.n)
            for a, b in zip(rows, rows[1:])
        ]
        return sum(ratios) / len(ratios)
    xs = [math.log(r.n) for r in rows]
    ys = [math.log(r.seconds) for r in rows]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:  # pragma: no cover - ns are distinct by construction
        raise QsimError("degenerate n range")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
