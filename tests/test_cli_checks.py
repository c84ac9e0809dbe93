"""End-to-end checks through the CLI.

Each test writes a circuit text, runs it through ``cli_dispatch`` as
``qsim run`` does, and compares what lands in the report files: counts
across the dense and tableau backends, which must agree bit for bit on
the Clifford fragment (Aaronson & Gottesman, quant-ph/0406196), or the
bytes of two reports that must be equal.  CI reruns this module pinned
to one core.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import qsim.stabilizer
from qsim import rng
from qsim.cli import cli_dispatch


def report(tmp_path, name, text, shots, seed=1, *flags) -> bytes:
    """The report bytes of ``qsim run`` on ``text`` (str or raw bytes)."""
    src, out = tmp_path / f"{name}.qc", tmp_path / f"{name}.json"
    src.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["run", str(src), "--shots", str(shots), "--seed", str(seed), "--out", str(out)]
    assert cli_dispatch(argv + list(flags)) == 0
    return out.read_bytes()


def lines(*parts) -> str:
    return "\n".join(parts) + "\n"


def ghz1000(axis) -> str:
    n = 1000
    ops = [f"qubits {n}", f"cbits {n}", "h q0"]
    ops += [f"cnot q{k} q{k + 1}" for k in range(n - 1)]
    if axis in ("X", "Y"):
        ops += [f"h q{q}" for q in range(n)]
    if axis == "Y":
        ops += [f"r q{q}" for q in range(n)]
    ops += [f"measure q{q} {axis} -> c{q}" for q in range(n)]
    return lines(*ops)


def variant(text) -> bytes:
    """``text`` with \\r\\n line ends, tabs, upper case, comments and
    blank lines: the same circuit, so the same report at one seed."""
    out = ["# a variant", ""]
    for k, line in enumerate(text.splitlines()):
        line = "\t".join(line.upper().split(" "))
        out += [" " + line + "  # op", ""] if k % 3 == 0 else [line]
    return "\r\n".join(out).encode()


# a determined outcome whose bit a random one then overwrites (c1), one
# measured before its qubit is collapsed in another axis (c2), the same
# axis twice (q3 Y) and conditioned gates between runs of measurements
RUNS5 = lines(
    "qubits 5", "cbits 6", "h q0", "cnot q0 q1", "h q2", "r q3",
    "measure q0 Z -> c0", "measure q1 Z -> c1", "measure q2 Z -> c1", "measure q0 Z -> c2",
    "measure q0 X -> c3", "cif c3 h q4", "cif c0 x q3", "cif c1 cnot q4 q3",
    "measure q3 Y -> c4", "measure q3 Y -> c5", "measure q1 X -> c4", "measure q4 Z -> c0",
)

# one random outcome and four determined ones, which the tableau defers
# to the end of their run; the very next ops read them: a conditioned H
# and CNOT split the shots, a conditioned X folds its bit into the signs
GHZ5_CIF = lines(
    "qubits 5", "cbits 5", "h q0", *[f"cnot q{k} q{k + 1}" for k in range(4)],
    *[f"measure q{q} Z -> c{q}" for q in range(5)],
    "cif c4 h q0", "cif c3 cnot q0 q1", "cif c2 x q2",
    "measure q0 X -> c0", "measure q1 Z -> c1", "measure q2 Z -> c2", "measure q3 X -> c3",
    "measure q4 Z -> c4",
)

# the dense rows record a CNOT from a live qubit onto a measured one as a
# copy: q0 and q3 become copies' coordinates as the axis moves up from q2
# and q4, q1 copies q0, then Y on a copy, R on a coordinate, X on one, a
# conditioned CNOT that splits the rows, and measurements of both kinds
COPIES5 = lines(
    "qubits 5", "cbits 8", *[f"h q{q}" for q in range(5)],
    "measure q0 Z -> c0", "measure q1 Z -> c1", "measure q3 Z -> c2",
    "cnot q2 q0", "cnot q4 q3", "cnot q0 q1", "y q1", "r q0", "x q3", "cif c2 cnot q4 q1",
    "measure q1 Z -> c3", "cnot q2 q3", "h q2",
    "measure q3 X -> c4", "measure q0 Z -> c5", "measure q2 Y -> c6", "measure q4 Z -> c7",
)

# H and a Z measurement on q0 to q5 leave each out of the dense rows as a
# plus qubit, a fair coin; the still untouched q6 is one too until its X
# measurement puts it back
PLUS7 = lines(
    "qubits 7", "cbits 11",
    *[f"h q{q}" for q in range(6)],
    *[f"measure q{q} Z -> c{q}" for q in range(6)],
    "cnot q0 q1", "cif c0 x q2", "h q6", "h q3", "cnot q3 q4",
    "cif c1 cnot q3 q5", "measure q6 X -> c6", "cif c6 h q0",
    "cnot q4 q6", "cif c2 cnot q6 q1", "measure q0 Z -> c7",
    "measure q4 X -> c8", "measure q6 Y -> c9", "measure q1 Z -> c10",
)

# every outcome is random: q0 and q1 go through H, q2 through H S H
ORACLE_PREP = ("qubits 3", "cbits 3", "h q0", "h q1", "h q2", "s q2", "h q2", "measure q0 Z -> c0")
ORACLE_TAIL = ("measure q1 X -> c1", "measure q2 Z -> c2")

# the tableau samples a block of shots at a time, and cif h splits each
# block's shots into two groups
GHZ64_CIF = lines(
    "qubits 64", "cbits 64", "h q0",
    *[f"cnot q{k} q{k + 1}" for k in range(63)],
    "measure q0 Z -> c0", "cif c0 h q1",
    *[f"measure q{q} Z -> c{q}" for q in range(1, 64)],
)


def _clifford64() -> str:
    n, rnd = 64, random.Random(1)
    ops = [f"qubits {n}", f"cbits {n}"]
    for _ in range(640):
        kind = rnd.choice(["h", "r", "x", "y", "z", "cnot"])
        if kind == "cnot":
            c, t = rnd.sample(range(n), 2)
            ops.append(f"cnot q{c} q{t}")
        else:
            ops.append(f"{kind} q{rnd.randrange(n)}")
    ops += [f"measure q{q} Z -> c{q}" for q in range(n)]
    return lines(*ops)


CLIFFORD64 = _clifford64()

# its s gates send it to the dense backend
DENSE6 = lines(
    "qubits 6", "cbits 3", "h q0", "cnot q0 q1", "s q1", "h q2", "cnot q2 q3",
    "h q4", "s q4", "cnot q4 q5",
    "measure q1 X -> c0", "cif c0 h q3", "measure q3 Y -> c1", "measure q5 Z -> c2",
)


@pytest.mark.parametrize("axis", ["Z", "X", "Y"])
def test_ghz1000_measured_in_full(tmp_path, axis):
    # one coin, then 999 determined outcomes from one call of GF(2)
    # products; along Y the phase products too
    counts = json.loads(report(tmp_path, "ghz1000", ghz1000(axis), 64))["counts"]
    assert set(counts) <= {"0" * 1000, "1" * 1000}
    assert sum(counts.values()) == 64


@pytest.mark.parametrize(
    "text", [RUNS5, GHZ5_CIF, COPIES5, PLUS7], ids=["runs5", "ghz5-cif", "copies5", "plus7"]
)
def test_dense_and_tableau_counts_agree(tmp_path, text):
    sv, stab = (
        json.loads(report(tmp_path, b, text, 4096, 1, "--backend", b))["counts"]
        for b in ("sv", "stab")
    )
    assert sv == stab


SAME_REPORT = {
    # 0101 reads only q1, so after q0 and q1 are measured it is cif c1 x q2
    "oracle-read": (
        lines(*ORACLE_PREP, "measure q1 Z -> c1", "oracle 0101 q0 q1 -> q2", "measure q2 Z -> c2"),
        lines(*ORACLE_PREP, "measure q1 Z -> c1", "cif c1 x q2", "measure q2 Z -> c2"),
        ("--backend", "sv"), 4096, 1, None,
    ),
    # 0110 is q0 XOR q1, with q0 measured and q1 live in |+>
    "oracle-xor": (
        lines(*ORACLE_PREP, "oracle 0110 q0 q1 -> q2", *ORACLE_TAIL),
        lines(*ORACLE_PREP, "cnot q1 q2", "cif c0 x q2", *ORACLE_TAIL),
        ("--backend", "sv"), 4096, 1, None,
    ),
    "ghz1000-Z-variant": (ghz1000("Z"), variant(ghz1000("Z")), (), 256, 7, None),
    "dense6-variant": (DENSE6, variant(DENSE6), (), 256, 7, None),
    # the default block holds all 10^4 shots; blocks of 300 make 34
    "ghz64-cif-blocks": (GHZ64_CIF, GHZ64_CIF, ("--backend", "stab"), 10_000, 1, 300),
}


@pytest.mark.parametrize("a, b, flags, shots, seed, block", SAME_REPORT.values(), ids=SAME_REPORT)
def test_report_bytes_are_equal(tmp_path, monkeypatch, a, b, flags, shots, seed, block):
    first = report(tmp_path, "a", a, shots, seed, *flags)
    if block:
        # 64 coins and 64 key bits: 16 bytes a shot
        monkeypatch.setattr(qsim.stabilizer, "_BATCH_BYTES", block * 16)
    assert report(tmp_path, "b", b, shots, seed, *flags) == first


ONE_CPU = (
    "import os, sys; from qsim.cli import cli_dispatch; "
    "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    "sys.exit(cli_dispatch(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "text, draws", [(CLIFFORD64, 64), (DENSE6, 3)], ids=["clifford64", "dense6"]
)
def test_outputs_do_not_depend_on_the_core_count(tmp_path, text, draws):
    # 10^5 shots draw their shot ranges in one thread per usable core; the
    # report must be the same bytes from a child pinned to one core
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    shots = 100_000
    if len(os.sched_getaffinity(0)) > 1:
        assert rng._workers(shots, shots * draws) > 1
    all_cores = report(tmp_path, "all", text, shots)
    src, out = tmp_path / "all.qc", tmp_path / "one.json"
    argv = ["run", str(src), "--shots", str(shots), "--seed", "1", "--out", str(out)]
    subprocess.run([sys.executable, "-c", ONE_CPU, *argv], check=True)
    assert out.read_bytes() == all_cores
