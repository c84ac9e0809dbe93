"""Backend dispatch, scaling benchmarks, report rendering, and the
command-line entry point (exercised in-process via cli_dispatch)."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    correlator,
    model_table,
    singlet_pauli_lhv,
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


def test_cli_run_non_clifford_on_tableau_exits_3(tmp_path, capsys):
    path = tmp_path / "s.qc"
    path.write_text("qubits 1\ncbits 1\ns q0\nmeasure q0 Z -> c0\n")
    assert cli_dispatch(["run", str(path), "--backend", "stab"]) == 3
    assert "stab" in capsys.readouterr().err or True


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


def test_import_cli_does_not_load_scipy_optimize():
    # scipy is only needed by the LP in the locality lab; every other
    # command must start without paying for it
    src = str(Path(qsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, qsim.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
