"""Seeded job generators for the four benchmark workloads.

A workload is an endless sequence of cycles; every cycle holds the same
job shapes and layouts (qubit counts, op counts, shots, where the
measurements and conditioned gates sit), and the seed only chooses what
fills them: gates, qubits, axes, condition bits and the seeds handed to
qsim.  That keeps the cost of a cycle steady across
seeds while the inputs themselves change.  Circuits are written in
qsim's text format by this module, never by qsim, so the benchmark
feeds the program only generated files and arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sv-shots", "sv-wide", "stab-mix", "lhv-lab")

_ONE_QUBIT = ("x", "y", "z", "r", "h")
_AXES = ("X", "Y", "Z")


@dataclass
class Job:
    """One closed-loop request.

    ``argv`` is a ``qsim`` command line (run through ``cli_dispatch``);
    ``api`` names a documented-API call instead (see ``worker._api``).
    ``expect`` carries what the output check needs to know.
    """

    kind: str
    argv: list[str] | None = None
    api: str | None = None
    out: str | None = None
    expect: dict = field(default_factory=dict)


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _qsim_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


# ---------------------------------------------------------------------------
# Circuit text


def _gate_line(rng: random.Random, n: int, cnot_share: float, extra=()) -> str:
    if rng.random() < cnot_share:
        c, t = rng.sample(range(n), 2)
        return f"cnot q{c} q{t}"
    return f"{rng.choice(_ONE_QUBIT + tuple(extra))} q{rng.randrange(n)}"


def _oracle_line(rng: random.Random, n: int) -> str:
    a, b, out = rng.sample(range(n), 3)
    table = "".join(rng.choice("01") for _ in range(4))
    return f"oracle {table} q{a} q{b} -> q{out}"


def dense_circuit(
    rng: random.Random, n: int, n_ops: int, n_meas: int, prefix_measure_all: bool = False
) -> str:
    """A circuit that auto-dispatches to the dense backend.

    ``n_ops`` gates with ``n_meas`` mid-circuit X/Y/Z measurements.  The
    layout is fixed by the shape, so every circuit of one shape costs
    about the same: one ``s`` gate first, the first measurement after an
    eighth of the gates and the rest evenly spread, every fourth gate
    after it conditioned on an earlier bit, and an oracle every 40th
    gate.  The seed picks the gates, qubits, axes and condition bits.
    With ``prefix_measure_all`` every qubit is first put through H and
    measured in Z.
    """
    lines = []
    written = []
    if prefix_measure_all:
        lines += [f"h q{q}" for q in range(n)]
        for q in range(n):
            lines.append(f"measure q{q} Z -> c{q}")
            written.append(q)
    first = n_ops // 8
    meas_at = {first + k * (n_ops - first) // n_meas for k in range(n_meas)}
    for i in range(n_ops):
        if i in meas_at:
            bit = len(written)
            lines.append(f"measure q{rng.randrange(n)} {rng.choice(_AXES)} -> c{bit}")
            written.append(bit)
        if i == 0:
            lines.append(f"s q{rng.randrange(n)}")
        elif i % 40 == 20:
            lines.append(_oracle_line(rng, n))
        elif i > first and i % 4 == 0:
            lines.append(f"cif c{rng.choice(written)} {_gate_line(rng, n, 0.3, extra=('s',))}")
        else:
            lines.append(_gate_line(rng, n, 0.3, extra=("s",)))
    return _header(n, len(written)) + "\n".join(lines) + "\n"


def _header(n: int, cbits: int) -> str:
    return f"qubits {n}\n" + (f"cbits {cbits}\n" if cbits else "")


def ghz_circuit(n: int) -> str:
    """GHZ-n, then every qubit measured in Z."""
    lines = ["h q0"] + [f"cnot q{k} q{k + 1}" for k in range(n - 1)]
    lines += [f"measure q{q} Z -> c{q}" for q in range(n)]
    return _header(n, n) + "\n".join(lines) + "\n"


def clifford_circuit(rng: random.Random, n: int, depth: int, random_axes: bool) -> str:
    """``depth`` random Clifford gates, then every qubit measured."""
    lines = [_gate_line(rng, n, 1 / 6) for _ in range(depth)]
    for q in range(n):
        axis = rng.choice(_AXES) if random_axes else "Z"
        lines.append(f"measure q{q} {axis} -> c{q}")
    return _header(n, n) + "\n".join(lines) + "\n"


def syndrome_circuit(rng: random.Random, n: int, rounds: int) -> str:
    """GHZ-n, then ``rounds`` rounds of "measure a fresh qubit in X, then
    flip two qubits on the outcome".  Pauli flips keep the state a signed
    GHZ state, so every round is a fair coin and the shots split into up
    to 2**rounds histories."""
    lines = ["h q0"] + [f"cnot q{k} q{k + 1}" for k in range(n - 1)]
    measured = rng.sample(range(n), rounds)
    for r, q in enumerate(measured):
        lines.append(f"measure q{q} X -> c{r}")
        a, b = rng.sample(range(n), 2)
        lines.append(f"cif c{r} x q{a}")
        lines.append(f"cif c{r} z q{b}")
    return _header(n, rounds) + "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workload cycles


def run_job(kind, workdir: Path, tag: str, text: str, shots: int, seed: int, expect) -> Job:
    """A ``qsim run`` job on ``text``, written to ``workdir/<tag>.qc``."""
    path = workdir / f"{tag}.qc"
    path.write_text(text)
    out = str(workdir / f"{tag}.json")
    argv = ["run", str(path), "--shots", str(shots), "--seed", str(seed), "--out", out]
    header = text.split("\n", 2)
    cbits = int(header[1].split()[1]) if header[1].startswith("cbits") else 0
    return Job(kind, argv=argv, out=out,
               expect=dict(expect, shots=shots, seed=seed, cbits=cbits))


# (n, ops, shots) per slot; the cost of a slot is about shots * ops * 2**n.
SV_SHOTS_SLOTS = ((6, 120, 2000), (7, 100, 2000), (8, 80, 2000), (9, 70, 1500), (10, 60, 1000))
SV_WIDE_SLOTS = ((12, 120, 16), (13, 100, 16), (14, 90, 16), (15, 70, 12), (16, 60, 8))
GHZ_SIZES = (200, 400)
CLIFFORD_SIZES = (128, 256)
SYNDROME = (400, 12, 4096)  # qubits, rounds, shots
MANY_SHOTS = (64, 640, 100_000)  # qubits, depth, shots

# Timed seconds of one cycle at the seed commit (2-core Intel Xeon VM on a
# shared host, Python 3.11, numpy 2.4, scipy 1.17).  --seconds becomes a
# cycle count through these, so a faster or slower commit still runs the
# same jobs.
CYCLE_SECONDS = {"sv-shots": 4.1, "sv-wide": 3.1, "stab-mix": 7.0, "lhv-lab": 12.5}


def cycle_jobs(workload: str, seed, cycle: int, workdir: Path) -> list[Job]:
    """The jobs of one cycle; files are written into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = rng_for(workload, seed, cycle)
    tag = f"c{cycle}"
    if workload in ("sv-shots", "sv-wide"):
        wide = workload == "sv-wide"
        return [
            run_job("dense", workdir, f"{tag}j{i}",
                    dense_circuit(rng, n, ops, 4 if wide else 3, prefix_measure_all=wide),
                    shots, _qsim_seed(rng), {"backend": "sv"})
            for i, (n, ops, shots) in enumerate(SV_WIDE_SLOTS if wide else SV_SHOTS_SLOTS)
        ]
    if workload == "stab-mix":
        jobs = [
            run_job("ghz", workdir, f"{tag}g{n}", ghz_circuit(n), 1, _qsim_seed(rng),
                     {"backend": "stab", "ghz": n})
            for n in GHZ_SIZES
        ]
        jobs += [
            run_job("clifford", workdir, f"{tag}r{n}",
                     clifford_circuit(rng, n, 10 * n, random_axes=True), 512,
                     _qsim_seed(rng), {"backend": "stab"})
            for n in CLIFFORD_SIZES
        ]
        n, rounds, shots = SYNDROME
        jobs.append(run_job("syndrome", workdir, f"{tag}s", syndrome_circuit(rng, n, rounds),
                             shots, _qsim_seed(rng), {"backend": "stab"}))
        n, depth, shots = MANY_SHOTS
        jobs.append(run_job("many-shots", workdir, f"{tag}m",
                             clifford_circuit(rng, n, depth, random_axes=False), shots,
                             _qsim_seed(rng), {"backend": "stab"}))
        return jobs
    if workload == "lhv-lab":
        return lhv_jobs(workdir, tag, _qsim_seed(rng))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def lhv_jobs(workdir: Path, tag: str, sim_seed: int) -> list[Job]:
    model = str(workdir / f"{tag}-ghz3-model.json")
    def out(name):
        return str(workdir / f"{tag}-{name}")
    return [
        Job("lhv-find", out=model, expect={"state": "ghz3", "bits": 1, "exact": True},
            argv=["lhv", "find", "--state", "ghz3", "--bits", "1", "--topology", "2>1",
                  "--out", model]),
        Job("lhv-find", out=out("ghz3-0bit.json"),
            expect={"state": "ghz3", "bits": 0, "infeasible": True},
            argv=["lhv", "find", "--state", "ghz3", "--bits", "0",
                  "--out", out("ghz3-0bit.json")]),
        Job("lhv-api", api="ghz3-equatorial"),
        Job("lhv-api", api="ghz4-xy"),
        Job("lhv-api", api="singlet-float"),
        Job("lhv-simulate", out=out("sim.json"), expect={"model": model, "shots": 1_000_000,
                                                         "seed": sim_seed},
            argv=["lhv", "simulate", "--model", model, "--shots", "1000000",
                  "--seed", str(sim_seed), "--out", out("sim.json")]),
        Job("chsh", out=out("chsh.csv"), expect={"steps": 64},
            argv=["bell", "chsh", "--steps", "64", "--out", out("chsh.csv")]),
    ]


# Untimed warm-up before the first cycle: the workload's smallest job
# (lazy imports) and, from a fixed seed, its slot with the largest arrays,
# so the allocator is in the same state for every timed cycle.
WARMUP_SLOTS = {"sv-shots": (4,), "sv-wide": (4,), "stab-mix": (5,), "lhv-lab": ()}


def warmup_jobs(workload: str, workdir: Path) -> list[Job]:
    jobs = cycle_jobs(workload, "warm-up", 0, workdir / "warm-up")
    return [jobs[i] for i in WARMUP_SLOTS[workload]]


# ---------------------------------------------------------------------------
# Settings of the documented-API jobs (shared by the worker and the oracle)

EQUATORIAL_3 = (0.0, math.pi / 3, 2 * math.pi / 3)
SINGLET_ALICE = tuple(k * math.pi / 2 for k in range(4))
SINGLET_BOB = tuple(k * math.pi / 2 + math.pi / 4 for k in range(4))


# ---------------------------------------------------------------------------
# Set-up: the smallest job of each workload, run by a fresh interpreter

BELL = "qubits 2\ncbits 2\nh q0\ncnot q0 q1\nmeasure q0 Z -> c0\nmeasure q1 Z -> c1\n"
BELL_S = "qubits 2\ncbits 2\nh q0\ncnot q0 q1\ns q1\nmeasure q0 Z -> c0\nmeasure q1 Z -> c1\n"


def setup_argv(workload: str, workdir: Path) -> list[str]:
    out = str(workdir / "setup-out.json")
    if workload == "lhv-lab":
        return ["lhv", "find", "--state", "singlet", "--bits", "0", "--out", out]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    path = workdir / "setup.qc"
    path.write_text(BELL if workload == "stab-mix" else BELL_S)
    return ["run", str(path), "--shots", "1", "--out", out]
