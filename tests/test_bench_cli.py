"""Backend dispatch, scaling benchmarks, report rendering, and the
command-line entry point (exercised in-process via cli_dispatch)."""

import ast
import copy
import hashlib
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lhv import singlet_pauli_lhv

import qsim
from qsim.bench import (
    BenchReport,
    BenchRow,
    bench_scaling,
    dispatch_run,
    random_clifford_circuit,
)
from qsim.circuit import (
    Circuit,
    Measure,
    PauliAxis,
    classify_gottesman_knill,
    BooleanFunction,
    deutsch,
    ghz,
    gk_entangler,
    validate,
)
from qsim.cli import _clean, cli_dispatch, model_from_json, model_to_json, write_report
from qsim.lang import format_circuit
from qsim.result import RunResult
from qsim.lhv import (
    PAULI_ALPHABET,
    LocalModel,
    correlator,
    model_table,
    table_vector,
)


def measured_copy(circuit):
    ops = list(circuit.ops) + [
        Measure(q, PauliAxis.Z, q) for q in range(circuit.n_qubits)
    ]
    return Circuit(circuit.n_qubits, circuit.n_qubits, tuple(ops))


# ---------------------------------------------------------------------------
# Random circuits and dispatch


def test_random_circuit_is_deterministic():
    a = random_clifford_circuit(4, 30, seed=7)
    b = random_clifford_circuit(4, 30, seed=7)
    c = random_clifford_circuit(4, 30, seed=8)
    assert a.ops == b.ops
    assert a.ops != c.ops


@pytest.mark.parametrize("n,depth", [(2, 1), (3, 17), (6, 40)])
def test_random_circuit_shape(n, depth):
    c = random_clifford_circuit(n, depth, seed=1)
    assert c.n_qubits == n and len(c.ops) == depth
    assert validate(c) == []
    assert classify_gottesman_knill(c).is_gk


def test_random_circuit_rejects_degenerate_requests():
    with pytest.raises(ValueError):
        random_clifford_circuit(1, 5, seed=0)
    with pytest.raises(ValueError):
        random_clifford_circuit(3, 0, seed=0)


def test_large_random_circuit_constructs():
    c = random_clifford_circuit(500, 1000, seed=0)
    assert len(c.ops) == 1000


def test_dispatch_auto_routes_by_fragment():
    gk = measured_copy(ghz(3))
    assert dispatch_run(gk, 10, seed=0).backend == "stab"
    oracle = deutsch(BooleanFunction.from_string("01"))
    assert dispatch_run(oracle, 10, seed=0).backend == "sv"


def test_dispatch_override_and_rejection():
    gk = measured_copy(ghz(2))
    assert dispatch_run(gk, 10, seed=0, backend="sv").backend == "sv"
    with pytest.raises(ValueError):
        dispatch_run(gk, 10, seed=0, backend="qasm")


# ---------------------------------------------------------------------------
# Scaling benchmarks


def test_bench_report_validation():
    row = BenchRow(n=3, depth=5, shots=1, seconds=0.1)
    with pytest.raises(ValueError):
        BenchReport("sv", (row, BenchRow(2, 5, 1, 0.1)), None)
    with pytest.raises(ValueError):
        BenchReport("sv", (BenchRow(2, 5, 1, 0.0),), None)


def test_bench_scaling_argument_checks():
    with pytest.raises(ValueError):
        bench_scaling("qasm", [2, 3], 5, 1, seed=0)
    with pytest.raises(ValueError):
        bench_scaling("sv", [2, 3], 5, 1, seed=0, depth_scale="cubic")


def test_bench_scaling_empty():
    report = bench_scaling("sv", [], 5, 1, seed=0)
    assert report.rows == () and report.growth is None


def test_bench_scaling_rows_and_growth():
    report = bench_scaling("sv", [3, 2, 4], 8, 1, seed=5)
    assert [r.n for r in report.rows] == [2, 3, 4]
    assert all(r.depth == 8 and r.seconds > 0 for r in report.rows)
    # the descriptor must agree with a recomputation from the rows
    want = np.mean(
        [
            math.log2(b.seconds / a.seconds) / (b.n - a.n)
            for a, b in zip(report.rows, report.rows[1:])
        ]
    )
    assert abs(report.growth - want) < 1e-12


def test_bench_scaling_linear_depths():
    report = bench_scaling("stab", [10, 20, 40], 6, 1, seed=5, depth_scale="linear")
    assert [r.depth for r in report.rows] == [6, 12, 24]
    xs = np.log([r.n for r in report.rows])
    ys = np.log([r.seconds for r in report.rows])
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(report.growth - slope) < 1e-9


def test_single_row_has_no_growth():
    report = bench_scaling("sv", [3], 4, 1, seed=0)
    assert len(report.rows) == 1 and report.growth is None


# ---------------------------------------------------------------------------
# Report rendering


def test_run_report_json_schema(tmp_path):
    res = dispatch_run(measured_copy(gk_entangler()), 64, seed=4)
    out = tmp_path / "run.json"
    write_report(res, "json", str(out))
    doc = json.loads(out.read_text())
    assert set(doc) == {"backend", "shots", "seed", "rng_id", "counts"}
    assert doc["backend"] == "stab" and doc["shots"] == 64 and doc["seed"] == 4
    assert doc["rng_id"] == "philox4x64-10"
    assert sum(doc["counts"].values()) == 64


def test_json_rendering_is_byte_stable(tmp_path):
    res = dispatch_run(measured_copy(ghz(3)), 100, seed=9)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(res, "json", str(a))
    write_report(res, "json", str(b))
    assert a.read_bytes() == b.read_bytes()


def _many_outcomes_circuit() -> str:
    """64 cbits, 21 random: 2*10^4 shots land on about 19 900 keys, some
    twice; a conditioned H splits the tableau batch into two groups."""
    lines = ["qubits 64", "cbits 64"]
    lines += [f"h q{q}" for q in range(20)]
    lines += [f"cnot q{q} q{q + 20}" for q in range(20)]
    lines += [f"x q{q}" for q in range(40, 64, 2)]
    lines += ["measure q0 Z -> c0", "cif c0 h q62"]
    lines += [f"measure q{q} {'X' if q == 63 else 'Z'} -> c{q}" for q in range(1, 64)]
    return "\n".join(lines) + "\n"


def _wide_key_circuit() -> str:
    """80 cbits, so keys span two 64-bit words, and the last two bits
    differ only between shots that took different conditioned branches."""
    lines = ["qubits 80", "cbits 80"]
    lines += [f"h q{q}" for q in range(8)]
    lines += [f"cnot q{q % 8} q{q}" for q in range(8, 80)]
    lines += [f"measure q{q} Z -> c{q}" for q in range(8)]
    lines += ["cif c1 h q78", "cif c2 x q79"]
    lines += [f"measure q{q} Z -> c{q}" for q in range(8, 80)]
    return "\n".join(lines) + "\n"


# SHA-256 of the reports as the C JSON encoder wrote them, before run
# reports were written from the histogram's arrays
@pytest.mark.parametrize(
    "circuit,shots,seed,keys,digest",
    [
        (_many_outcomes_circuit, 20_000, 5, 19_916,
         "79f9f571d7de83f51abaf437db36e481a1c0b92c747f709a658374da6946b11c"),
        (_wide_key_circuit, 4000, 6, 383,
         "a646159ef76804eb23bee68b268dc52bcab13ac6c9f4ca6d326b6c9d28b9d770"),
    ],
    ids=["many-outcomes", "wide-keys"],
)
def test_cli_run_tableau_report_bytes_pinned(tmp_path, circuit, shots, seed, keys, digest):
    path, out = tmp_path / "c.qc", tmp_path / "run.json"
    path.write_text(circuit())
    argv = ["run", str(path), "--shots", str(shots), "--seed", str(seed), "--out", str(out)]
    assert cli_dispatch(argv) == 0
    doc = json.loads(out.read_bytes())
    assert doc["backend"] == "stab" and len(doc["counts"]) == keys
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _wide_feedback_circuit() -> str:
    """12 qubits through H and measured in Z, then gates that touch the
    measured qubits, a third of them conditioned, and four measurements."""
    lines = ["qubits 12", "cbits 16"]
    lines += [f"h q{q}" for q in range(12)]
    lines += [f"measure q{q} Z -> c{q}" for q in range(12)]
    gates = ["s q{a}", "cif c{c} h q{b}", "cnot q{a} q{b}", "cif c{c} s q{b}", "y q{a}",
             "cif c{c} cnot q{b} q{a}", "r q{b}", "x q{a}", "cif c{c} z q{a}", "h q{b}"]
    for k in range(60):
        a, b, c = (5 * k + 1) % 12, (7 * k + 4) % 12, (3 * k) % 12
        if a == b:
            b = (b + 1) % 12
        lines.append(gates[k % len(gates)].format(a=a, b=b, c=c))
        if k % 15 == 14:
            lines.append(f"measure q{b} {'ZXYZ'[k // 15]} -> c{12 + k // 15}")
    return "\n".join(lines) + "\n"


def _oracle_feedback_circuit() -> str:
    """Oracles on measured inputs and outputs, on unmeasured ones, and mixed."""
    lines = ["qubits 8", "cbits 10"]
    lines += [f"h q{q}" for q in range(0, 8, 2)] + ["s q0", "cnot q0 q1", "cnot q2 q3"]
    lines += [f"measure q{q} Z -> c{q}" for q in range(0, 8, 2)]
    lines += ["oracle 0110 q0 q2 -> q4", "oracle 01 q1 -> q6", "h q4", "s q4",
              "oracle 00010111 q3 q4 q6 -> q7", "measure q7 Z -> c8", "cif c8 h q0",
              "oracle 1000 q5 q7 -> q0", "cif c2 s q0", "oracle 0111 q0 q1 -> q2",
              "measure q4 Z -> c9", "oracle 10 q4 -> q5", "h q6", "measure q6 Z -> c6",
              "cif c6 x q1", "oracle 1101 q6 q7 -> q3"]
    lines += [f"measure q{q} Z -> c{q}" for q in (1, 3, 5, 7)]
    return "\n".join(lines) + "\n"


def _remeasured_circuit() -> str:
    """Qubits measured in Z, then again along X and Y, and in Z once more."""
    lines = ["qubits 6", "cbits 14"]
    lines += [f"h q{q}" for q in range(6)] + ["s q1", "cnot q1 q2", "s q2"]
    lines += [f"measure q{q} Z -> c{q}" for q in range(6)]
    lines += ["measure q0 X -> c6", "measure q1 Y -> c7", "cif c6 s q0", "measure q0 Y -> c8",
              "cnot q2 q3", "measure q3 X -> c9", "cif c7 h q1", "measure q1 Z -> c10",
              "measure q2 Y -> c11", "s q2", "measure q2 X -> c12", "measure q3 Z -> c13"]
    return "\n".join(lines) + "\n"


# SHA-256 of the reports as the dense backend wrote them while every
# amplitude row still spanned all 2**n basis states
@pytest.mark.parametrize(
    "circuit,shots,seed,keys,digest",
    [
        (_wide_feedback_circuit, 64, 12, 64,
         "dff8f2b7db35b342bfd13118a605d7f70e389e24dd7676f2e8d5ad15709ac625"),
        (_oracle_feedback_circuit, 3000, 13, 48,
         "1a747351fbbcfc591e87a3ea46e573830522f49e046f49247407cf403a2bb266"),
        (_remeasured_circuit, 5000, 14, 3872,
         "5affc789d56be0b5848e6d8e1d6f39a49545d69e23b093f8885ab7eb67d18771"),
    ],
    ids=["wide-feedback", "oracles", "remeasured"],
)
def test_cli_run_dense_report_bytes_pinned(tmp_path, circuit, shots, seed, keys, digest):
    path, out = tmp_path / "c.qc", tmp_path / "run.json"
    path.write_text(circuit())
    argv = ["run", str(path), "--shots", str(shots), "--seed", str(seed), "--out", str(out)]
    assert cli_dispatch(argv) == 0
    doc = json.loads(out.read_bytes())
    assert doc["backend"] == "sv" and len(doc["counts"]) == keys
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@st.composite
def run_results(draw):
    """Run results with keys of one length from 0 to 130 bits (the one
    key of a circuit without cbits is ""), or with arbitrary text keys,
    and counts that may be numpy integers."""
    if draw(st.booleans()):
        m = draw(st.integers(0, 130))
        key = st.lists(st.sampled_from("01"), min_size=m, max_size=m).map("".join)
        keys = draw(st.lists(key, min_size=1, max_size=1 if m == 0 else 40, unique=True))
    else:
        keys = draw(st.lists(st.text(max_size=12), min_size=0, max_size=20, unique=True))
    count = st.integers(1, 10**12)
    if draw(st.booleans()):
        count = count.map(np.int64)
    counts = {k: draw(count) for k in keys}
    if draw(st.booleans()):
        counts = dict(sorted(counts.items()))
    return RunResult(draw(st.sampled_from(["sv", "stab"])), draw(st.integers(1, 10**9)),
                     draw(st.integers(0, 2**63 - 1)), "philox4x64-10", counts)


@settings(max_examples=150, deadline=None)
@given(result=run_results())
def test_run_report_bytes_match_json_dumps(result, tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "run.json"
    write_report(result, "json", str(out))
    payload = {"backend": result.backend, "shots": result.shots, "seed": result.seed,
               "rng_id": result.rng_id, "counts": dict(result.counts)}
    assert out.read_text() == json.dumps(_clean(payload), sort_keys=True, indent=2) + "\n"


def test_floats_render_with_twelve_significant_digits(tmp_path):
    out = tmp_path / "d.json"
    write_report({"x": 0.123456789012345, "y": 2.0}, "json", str(out))
    doc = out.read_text()
    assert '"x": 0.123456789012' in doc
    assert '"y": 2' in doc


def test_csv_headers(tmp_path):
    report = bench_scaling("stab", [4, 8], 5, 1, seed=1)
    out = tmp_path / "bench.csv"
    write_report(report, "csv", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "n,depth,shots,seconds"
    assert len(lines) == 3


def test_write_report_rejects_unknown_combinations(tmp_path):
    with pytest.raises(ValueError):
        write_report({"x": 1}, "csv", str(tmp_path / "x.csv"))
    # no command renders a benchmark or a correlation table as json
    report = BenchReport("sv", (BenchRow(2, 5, 1, 0.1),), None)
    for payload in (report, model_table(singlet_pauli_lhv())):
        with pytest.raises(ValueError, match="cannot render .* as json"):
            write_report(payload, "json", str(tmp_path / "x.json"))
    with pytest.raises(ValueError):
        write_report([1.0, 2.0], "yaml", str(tmp_path / "x.yaml"))


def test_model_json_round_trip():
    model = singlet_pauli_lhv()
    doc = model_to_json(model)
    back = model_from_json(json.loads(json.dumps(doc)))
    assert back.topology == model.topology
    assert back.weights == model.weights
    assert back.alphabets == (PAULI_ALPHABET, PAULI_ALPHABET)
    gap = np.abs(table_vector(model_table(back)) - table_vector(model_table(model)))
    assert float(gap.max()) == 0.0


def test_model_from_json_rejects_junk():
    with pytest.raises(ValueError):
        model_from_json({"weights": [1.0]})


# ---------------------------------------------------------------------------
# CLI: run


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(format_circuit(measured_copy(gk_entangler())))
    return str(path)


def test_cli_run_stdout(bell_file, capsys):
    assert cli_dispatch(["run", bell_file, "--shots", "200", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == "stab"
    assert set(doc["counts"]) == {"01", "10"}
    assert sum(doc["counts"].values()) == 200


def test_cli_run_backend_override(bell_file, capsys):
    assert cli_dispatch(["run", bell_file, "--backend", "sv", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["backend"] == "sv"


def test_cli_run_out_file(bell_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli_dispatch(["run", bell_file, "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["seed"] == 1


def test_cli_run_missing_file_exits_2(tmp_path):
    assert cli_dispatch(["run", str(tmp_path / "nope.qc")]) == 2


def test_cli_run_malformed_circuit_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 2\nwobble q0\n")
    assert cli_dispatch(["run", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, message", [
    ("qubits 2\ncnot q0 q0\n", 2, "cnot needs two distinct qubits"),
    ("qubits 2\nh q5\n", 2, "qubit q5 out of range (circuit has 2)"),
    ("qubits 1\ncbits 1\nmeasure q0 Z -> c3\n", 3,
     "classical bit c3 out of range (circuit has 1)"),
    ("qubits 1\ncbits 1\ncif c0 x q0\n", 3,
     "condition bit c0 is not written by any earlier measure"),
    ("qubits 2\noracle 0110 q0 -> q1\n", 2, "truth table has 4 entries but 1 input(s) need 2"),
    ("qubits 3\noracle 0110 q0 q0 -> q1\n", 2, "oracle input qubits must be distinct"),
    ("qubits 1\noracle 01 q0 -> q0\n", 2, "oracle output q0 is also an input"),
    # the qubit's range comes before the unwritten condition, and the blank
    # and comment lines count
    ("qubits 2\ncbits 1\n\n# a comment\n\ncif c0 cnot q0 q7\n", 6,
     "qubit q7 out of range (circuit has 2)"),
], ids=["cnot-twice", "qubit", "bit", "condition", "oracle-arity", "oracle-inputs",
        "oracle-output", "rule-order"])
def test_cli_run_reports_each_broken_rule_at_its_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "rule.qc"
    path.write_text(text)
    assert cli_dispatch(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


def test_cli_run_non_clifford_on_tableau_exits_3(tmp_path, capsys):
    path = tmp_path / "s.qc"
    path.write_text("qubits 1\ncbits 1\ns q0\nmeasure q0 Z -> c0\n")
    assert cli_dispatch(["run", str(path), "--backend", "stab"]) == 3
    assert "stab" in capsys.readouterr().err or True


@pytest.mark.parametrize("text, backend", [
    ("qubits 2\ncbits 100000000000000000\nh q0\nmeasure q0 Z -> c0\n", ["--backend", "stab"]),
    ("qubits 2\ncbits 100000000000000000\nh q0\nmeasure q0 Z -> c0\n", ["--backend", "sv"]),
    ("qubits 300000000\nh q0\n", []),
], ids=["cbits-stab", "cbits-sv", "qubits-auto"])
def test_cli_run_register_too_large_to_allocate_exits_3(tmp_path, capsys, text, backend):
    # Each register needs petabytes, past a 48-bit address space, so numpy
    # refuses the allocation at once and no memory is touched.
    path = tmp_path / "huge.qc"
    path.write_text(text)
    assert cli_dispatch(["run", str(path), "--shots", "4", *backend]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_cli_run_past_the_dense_limit_exits_3(tmp_path, capsys):
    # an s gate keeps the circuit off the tableau, and 25 qubits are one
    # past what the dense backend holds
    path = tmp_path / "wide.qc"
    path.write_text("qubits 25\ns q0\n")
    assert cli_dispatch(["run", str(path)]) == 3
    assert capsys.readouterr().err == "error: 25 qubits exceeds the dense limit of 24\n"


@pytest.mark.parametrize("backend", ["sv", "stab"])
def test_cli_run_zero_shots_exits_2(bell_file, capsys, backend):
    assert cli_dispatch(["run", bell_file, "--shots", "0", "--backend", backend]) == 2
    assert capsys.readouterr().err == "error: shots must be positive\n"


def test_cli_usage_error_exits_2(bell_file, capsys):
    assert cli_dispatch(["run", bell_file, "--backend", "qasm"]) == 2
    capsys.readouterr()


def test_cli_seed_resolution(bell_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QSIM_SEED", "123")
    assert cli_dispatch(["run", bell_file]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123
    # explicit flag beats the environment
    assert cli_dispatch(["run", bell_file, "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    monkeypatch.setenv("QSIM_SEED", "pi")
    assert cli_dispatch(["run", bell_file]) == 2
    capsys.readouterr()


def test_cli_seed_defaults_to_zero(bell_file, capsys, monkeypatch):
    monkeypatch.delenv("QSIM_SEED", raising=False)
    assert cli_dispatch(["run", bell_file]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


@pytest.mark.parametrize("seed", [2, 11, 29, 43, 57])
def test_cli_backends_agree_on_random_circuits(seed, tmp_path, capsys):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    circuit = measured_copy(random_clifford_circuit(n, int(rng.integers(5, 25)), seed))
    path = tmp_path / "c.qc"
    path.write_text(format_circuit(circuit))
    freqs = []
    for backend in ("sv", "stab"):
        out = tmp_path / f"{backend}.json"
        code = cli_dispatch(
            ["run", str(path), "--backend", backend, "--shots", "10000",
             "--seed", str(seed), "--out", str(out)]
        )
        assert code == 0
        counts = json.loads(out.read_text())["counts"]
        freqs.append({k: v / 10000 for k, v in counts.items()})
    for key in set(freqs[0]) | set(freqs[1]):
        assert abs(freqs[0].get(key, 0.0) - freqs[1].get(key, 0.0)) < 0.03


# ---------------------------------------------------------------------------
# CLI: bench and bell


def test_cli_bench_writes_csv_and_growth_note(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = cli_dispatch(
        ["bench", "--backend", "stab", "--min-n", "4", "--max-n", "16",
         "--depth", "8", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,depth,shots,seconds"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [4, 8, 16]
    assert "growth descriptor (stab)" in capsys.readouterr().err


def test_cli_bench_rejects_inverted_range(capsys):
    code = cli_dispatch(
        ["bench", "--backend", "sv", "--min-n", "5", "--max-n", "3", "--depth", "2"]
    )
    assert code == 2
    capsys.readouterr()
    # sizes below two are refused before any is listed: the tableau sizes
    # double from --min-n, so a 0 or a negative one would never pass --max-n
    for backend in ("sv", "stab"):
        for min_n in ("0", "-1"):
            code = cli_dispatch(["bench", "--backend", backend, "--min-n", min_n,
                                 "--max-n", "8", "--depth", "2"])
            assert code == 2
            assert capsys.readouterr() == ("", "error: need at least two qubits\n")


def test_cli_bell_chsh_curve(tmp_path):
    out = tmp_path / "chsh.csv"
    assert cli_dispatch(["bell", "chsh", "--steps", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,S"
    assert len(lines) == 10
    for line in lines[1:]:
        t, s = (float(v) for v in line.split(","))
        assert abs(s - (math.cos(3 * t) - 3 * math.cos(t))) < 1e-9


# ---------------------------------------------------------------------------
# CLI: lhv find / simulate


def test_cli_lhv_find_singlet_and_simulate(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert cli_dispatch(
        ["lhv", "find", "--state", "singlet", "--out", str(model_path)]
    ) == 0
    doc = json.loads(model_path.read_text())
    assert doc["topology"] == {"parties": 2, "messages": []}
    assert abs(sum(doc["weights"]) - 1.0) < 1e-9

    sim_path = tmp_path / "sim.json"
    code = cli_dispatch(
        ["lhv", "simulate", "--model", str(model_path), "--shots", "20000",
         "--seed", "5", "--out", str(sim_path)]
    )
    assert code == 0
    sim = json.loads(sim_path.read_text())
    assert sim["bits_used_per_shot"] == 0
    assert sim["profiles"]["Z|Z"]["correlator"] == -1.0


def test_cli_lhv_find_ghz_without_bits_reports_infeasible(tmp_path):
    out = tmp_path / "cert.json"
    assert cli_dispatch(["lhv", "find", "--state", "ghz3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["infeasible"] is True
    assert doc["violation"] > 1e-9
    assert len(doc["coefficients"]) == 27 * 8


def test_cli_lhv_find_one_bit_model_is_byte_identical(tmp_path):
    # column generation breaks pricing ties by column index, so two runs
    # build the same masters and write the same model
    outs = []
    for rep in ("a", "b"):
        out = tmp_path / f"model-{rep}.json"
        argv = ["lhv", "find", "--state", "ghz3", "--bits", "1", "--topology", "2>1"]
        assert cli_dispatch(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["topology"]["messages"] == [[1, 0]]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["bell", "chsh", "--steps", "64"],
         "e2a65ad53977f00cc83014acec4af15e47644cf1f1b18f8019c02c148f701a7c"),
        (["lhv", "find", "--state", "ghz3", "--bits", "1", "--topology", "2>1"],
         "4e55922efee9e600b5bb03aa7801ace1540bc012035c58e5a9594bbc0758ed7b"),
    ],
    ids=["bell-chsh-64", "lhv-find-ghz3-1bit"],
)
def test_cli_locality_outputs_are_pinned(tmp_path, argv, digest):
    # the CHSH curve and the one-bit GHZ model, byte for byte
    out = tmp_path / "out"
    assert cli_dispatch(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_lhv_bits_topology_mismatch_exits_2(capsys):
    assert cli_dispatch(["lhv", "find", "--state", "ghz3", "--bits", "1"]) == 2
    capsys.readouterr()


def test_cli_lhv_bad_topology_exits_2(capsys):
    code = cli_dispatch(
        ["lhv", "find", "--state", "ghz3", "--bits", "1", "--topology", "2-1"]
    )
    assert code == 2
    code = cli_dispatch(
        ["lhv", "find", "--state", "ghz3", "--bits", "1", "--topology", "9>1"]
    )
    assert code == 2
    capsys.readouterr()


def test_cli_lhv_simulate_malformed_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_dispatch(["lhv", "simulate", "--model", str(bad)]) == 2
    bad.write_text('{"weights": [1.0]}')
    assert cli_dispatch(["lhv", "simulate", "--model", str(bad)]) == 2
    capsys.readouterr()


# party 1 sends party 0 one bit; both parties choose between X and Y
ONE_BIT_MODEL = {
    "alphabets": [["X", "Y"], ["X", "Y"]],
    "topology": {"parties": 2, "messages": [[1, 0]]},
    "strategies": [
        {"outputs": [[[1, 1], [1, 1]], [[1], [1]]], "messages": [[[0], [0]]]},
        {"outputs": [[[1, 1], [-1, 1]], [[1], [-1]]], "messages": [[[0], [1]]]},
    ],
    "weights": [0.5, 0.5],
}


def test_cli_lhv_simulate_hand_written_model(tmp_path):
    model, out = tmp_path / "model.json", tmp_path / "sim.json"
    model.write_text(json.dumps(ONE_BIT_MODEL))
    argv = ["lhv", "simulate", "--model", str(model), "--shots", "2000", "--out", str(out)]
    assert cli_dispatch(argv) == 0
    sim = json.loads(out.read_text())
    assert sim["bits_used_per_shot"] == 1
    assert sim["profiles"]["X|X"]["dist"] == {"++": 1.0}


def test_cli_lhv_simulate_bloch_axis_model(tmp_path, capsys):
    # A model over Bloch axes, found through the API: GHZ3 over the
    # equatorial axes at phi = 0, pi/2 and pi has a one-bit model.  Its
    # file holds each axis as [theta, phi], the simulation reads them
    # back, its profiles are labelled theta,phi, and two runs give the
    # same bytes.
    eq = tuple(qsim.BlochAxis(math.pi / 2, phi) for phi in (0.0, math.pi / 2, math.pi))
    table = qsim.quantum_table(qsim.ghz_state(3), (eq,) * 3)
    model = qsim.find_local_model(table, qsim.CommTopology(3, ((1, 0),)))
    assert isinstance(model, LocalModel)
    path = tmp_path / "model.json"
    write_report(model, "json", str(path))
    doc = json.loads(path.read_text())
    axes = [[1.57079632679, 0.0], [1.57079632679, 1.57079632679], [1.57079632679, 3.14159265359]]
    assert doc["alphabets"] == [axes] * 3
    outs = []
    for rep in ("a", "b"):
        out = tmp_path / f"sim-{rep}.json"
        argv = ["lhv", "simulate", "--model", str(path), "--shots", "2000", "--seed", "3"]
        assert cli_dispatch(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    labels = ("1.57079632679,0", "1.57079632679,1.57079632679", "1.57079632679,3.14159265359")
    want = {"|".join(p) for p in itertools.product(labels, repeat=3)}
    assert set(json.loads(outs[0])["profiles"]) == want
    for entry, message in (([1.0], "bad axis entry [1.0] in model file"),
                           ([4.0, 0.0], "theta must lie in [0, pi]")):
        doc["alphabets"][0][0] = entry
        path.write_text(json.dumps(doc))
        assert cli_dispatch(["lhv", "simulate", "--model", str(path), "--shots", "10"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_cli_lhv_simulate_non_finite_weight_exits_2(tmp_path, capsys, bad):
    # json reads NaN and Infinity literals; the model check rejects them
    # before any draw
    doc = dict(ONE_BIT_MODEL, weights=[bad, 0.5])
    model, out = tmp_path / "model.json", tmp_path / "sim.json"
    model.write_text(json.dumps(doc))
    argv = ["lhv", "simulate", "--model", str(model), "--shots", "100", "--out", str(out)]
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err == "error: weights must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "strategy,table,path,value",
    [
        (0, "messages", (0, 1, 0), 3),
        (1, "messages", (0, 0, 0), -1),
        (0, "outputs", (1, 0, 0), 0),
        (1, "outputs", (2,), [[1], [1]]),
        (0, "outputs", (0, 1), [1]),
    ],
    ids=["message-bit-3", "message-bit-minus-1", "output-0", "extra-party-output", "short-table"],
)
def test_cli_lhv_simulate_invalid_strategy_exits_2(tmp_path, capsys, strategy, table, path, value):
    # no edited table is valid for the topology (see DeterministicStrategy)
    doc = copy.deepcopy(ONE_BIT_MODEL)
    entries = doc["strategies"][strategy][table]
    for i in path[:-1]:
        entries = entries[i]
    entries[path[-1] : path[-1] + 1] = [value]  # replaces entry i, or appends at i == len
    model, out = tmp_path / "model.json", tmp_path / "sim.json"
    model.write_text(json.dumps(doc))
    argv = ["lhv", "simulate", "--model", str(model), "--shots", "2000", "--out", str(out)]
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_module_entry_point_prints_no_runpy_warning():
    # ``python -m qsim.cli`` imports the package first; if that already
    # imported qsim.cli, runpy warns on every call
    src = str(Path(qsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-W", "default", "-m", "qsim.cli", "--help"], env=env,
                         capture_output=True, text=True, check=True)
    assert "usage: qsim" in out.stdout
    assert "RuntimeWarning" not in out.stderr


_FOOTPRINT_PROBE = """
import json, sys
from qsim.cli import cli_dispatch, main

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

at_import = scipy_loaded()
circuit, workdir = sys.argv[1:]
sys.argv = ["qsim", "run", circuit, "--shots", "64"]
try:
    main()
except SystemExit as exc:
    run_code = exc.code
after_run = scipy_loaded()
find = cli_dispatch(["lhv", "find", "--state", "singlet", "--out", workdir + "/find.json"])
chsh = cli_dispatch(["bell", "chsh", "--steps", "4", "--out", workdir + "/chsh.csv"])
import qsim
unresolved = [name for name in qsim.__all__ if not hasattr(qsim, name)]
star = {}
exec("from qsim import *", star)
print(json.dumps({"run": run_code, "at_import": at_import, "after_run": after_run, "find": find,
                  "chsh": chsh, "unresolved": unresolved,
                  "star_missing": sorted(set(qsim.__all__) - set(star))}), file=sys.stderr)
"""


def test_import_cli_does_not_load_scipy_optimize(bell_file, tmp_path):
    # scipy is only needed by the LP in the locality lab; every other
    # command must start and run without paying for it.  A fresh
    # interpreter runs ``qsim run`` through the console entry point; the
    # locality-lab commands then load scipy on use, and every package
    # name resolves
    src = str(Path(qsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, bell_file, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout)["shots"] == 64
    assert json.loads(out.stderr.splitlines()[-1]) == {
        "run": 0, "at_import": [], "after_run": [], "find": 0, "chsh": 0, "unresolved": [],
        "star_missing": []}
    assert (tmp_path / "chsh.csv").read_text().startswith("theta,S\n")
    assert "strategies" in json.loads((tmp_path / "find.json").read_text())


def _names_taken_from_qsim(path):
    """Every name that ``path`` imports from ``qsim`` or reads as ``qsim.<name>``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "qsim":
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "qsim"):
            yield node.attr


def test_the_api_is_the_readme_list():
    # one source for the package's names: README's "Python API" list is
    # ``__all__``, every name in it resolves, and demos/ and perfbench/
    # take from ``qsim`` only listed names and submodules
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Python API\n")[1].split("\n## ")[0]
    listed = [name for line in section.splitlines() if line.startswith("- ")
              for name in re.findall(r"`([A-Za-z_]\w*)`", line)]
    assert sorted(listed) == sorted(qsim.__all__)
    assert [name for name in qsim.__all__ if not hasattr(qsim, name)] == []
    submodules = {m.name for m in pkgutil.iter_modules(qsim.__path__)}
    taken = {name for folder in ("demos", "perfbench") for path in (root / folder).glob("*.py")
             for name in _names_taken_from_qsim(path)}
    assert taken - submodules <= set(qsim.__all__)


def test_qsim_run_evaluates_the_circuit_rules_once(bell_file, monkeypatch, capsys):
    # the parser's verdict stays on the circuit it built, so the backend's
    # own check does not evaluate the rules again
    import qsim.circuit

    original, calls = qsim.circuit.validate, []

    def counted(circuit):
        calls.append(circuit)
        return original(circuit)

    for name, module in list(sys.modules.items()):
        if name == "qsim" or name.startswith("qsim."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    for backend in ("sv", "stab"):
        calls.clear()
        assert cli_dispatch(["run", bell_file, "--backend", backend, "--shots", "16"]) == 0
        assert len(calls) == 1
    capsys.readouterr()
