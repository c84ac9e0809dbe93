"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import qsim  # noqa: E402
import qsim.cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def _inputs(workload, seed, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = W.cycle_jobs(workload, seed, 0, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.glob("*.qc"))}
    argvs = [[a.replace(str(workdir), "") for a in (j.argv or [j.api])] for j in jobs]
    return files, argvs


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    a = _inputs(workload, 5, tmp_path / "a")
    assert a == _inputs(workload, 5, tmp_path / "b")
    assert a != _inputs(workload, 6, tmp_path / "c")


def test_cycles_differ_but_keep_their_shapes(tmp_path):
    first = W.cycle_jobs("sv-shots", 1, 0, tmp_path)
    second = W.cycle_jobs("sv-shots", 1, 1, tmp_path)
    assert [j.expect["shots"] for j in first] == [j.expect["shots"] for j in second]
    texts = [Path(j.argv[1]).read_text() for j in second]
    assert all(t.startswith(f"qubits {n}\n") for t, (n, _, _) in zip(texts, W.SV_SHOTS_SLOTS))


def test_generated_dense_circuits_dispatch_to_sv(tmp_path):
    for workload in ("sv-shots", "sv-wide"):
        job = W.cycle_jobs(workload, 3, 0, tmp_path)[0]
        circuit = qsim.parse_circuit(Path(job.argv[1]).read_text())
        assert not qsim.classify_gottesman_knill(circuit).is_gk


# ---------------------------------------------------------------------------
# Recorder


def _bindings():
    return {(name, key): value for name, mod in sorted(sys.modules.items())
            if name == "qsim" or name.startswith("qsim.") for key, value in vars(mod).items()}


def test_wrappers_return_what_the_call_returns_and_restore_cleanly(tmp_path):
    import scipy.optimize

    before = _bindings()
    linprog = scipy.optimize.linprog
    rec = T.Recorder()
    rec.install(*T.LINPROG)
    for target in T.TARGETS:
        rec.install(*target)
    rec.install("qsim.lang", "no_such_function", "lang.gone")
    assert rec.absent == ["qsim.lang.no_such_function"]
    assert qsim.validate is not before["qsim", "validate"]
    assert qsim.statevector.validate is qsim.validate  # every binding, by identity
    from scipy.optimize import linprog as late  # a lazy import sees the wrapper

    assert late is not linprog

    sentinel = object()
    assert rec.wrap("x", lambda: sentinel)() is sentinel
    bell = W.BELL
    assert qsim.parse_circuit(bell) == before["qsim", "parse_circuit"](bell)
    rec.job = 0
    res = qsim.dispatch_run(qsim.parse_circuit(bell), 50, 3)
    assert res.counts == before["qsim", "dispatch_run"](qsim.parse_circuit(bell), 50, 3).counts
    names = [s[0] for s in rec.spans]
    assert {"bench.dispatch", "circuit.classify", "stabilizer.run", "circuit.validate",
            "rng.shot_uniforms"} <= set(names)
    assert all(s[4] in (None, 0) for s in rec.spans)

    rec.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert scipy.optimize.linprog is linprog


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, None, 0, None], ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None], ["d", 5.0, 6.0, 0, 0, None]]
    assert T.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert T.coverage(spans, [20.0]) == [0.5]


# ---------------------------------------------------------------------------
# Tail rule


@pytest.mark.parametrize("n, rank, pct, beyond", [
    (1, 0, 100.0, 0), (7, 6, 100.0, 0), (20, 19, 100.0, 0),
    (21, 10, 100 * 11 / 21, 10), (35, 24, 100 * 25 / 35, 10), (100, 89, 90.0, 10),
    (1000, 989, 99.0, 10),
])
def test_tail_percentile(n, rank, pct, beyond):
    values = list(np.random.default_rng(n).permutation(np.arange(n, dtype=float)))
    value, p, b = run.tail(values)
    assert (value, b) == (float(rank), beyond)
    assert p == pytest.approx(pct)
    assert sum(v > value for v in values) == beyond


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_tables_and_strategies_agree_with_qsim():
    ghz = oracle.target_table(oracle.state_vector("ghz", 3), oracle._pauli_alphabets(3))
    table = qsim.quantum_table(qsim.ghz_state(3), (qsim.PAULI_ALPHABET,) * 3)
    assert np.allclose(ghz.ravel(), qsim.table_vector(table), atol=1e-12)
    sizes, messages = (2, 3), ((1, 0),)
    rows = oracle.all_strategy_rows(sizes, messages)
    topology = qsim.CommTopology(2, messages)
    strategies = qsim.enumerate_strategies(2, sizes, topology)
    assert rows.shape[1] == len(strategies) == oracle.strategy_count(sizes, messages)
    alphabets = ((qsim.PauliAxis.X, qsim.PauliAxis.Z),) + (qsim.PAULI_ALPHABET,)
    theirs = {tuple(np.flatnonzero(qsim.table_vector(qsim.strategy_table(s, topology, alphabets))))
              for s in strategies}
    ours = {tuple(np.arange(6) * 4 + rows[:, j]) for j in range(rows.shape[1])}
    assert ours == theirs


def _run_ok(job):
    assert qsim.cli.cli_dispatch(job.argv) == 0
    assert oracle.check_job(job) is None


def test_oracle_rejects_tampered_run_output(tmp_path):
    job = W.run_job("ghz", tmp_path, "g", W.ghz_circuit(6), 40, 9, {"backend": "stab", "ghz": 6})
    _run_ok(job)
    doc = json.loads(Path(job.out).read_text())
    key = next(iter(doc["counts"]))
    for tampered in (
        dict(doc, counts={**doc["counts"], key: doc["counts"][key] + 1}),
        dict(doc, counts={"010101": 40}),
        dict(doc, backend="sv"),
    ):
        Path(job.out).write_text(json.dumps(tampered))
        assert oracle.check_job(job) is not None


def test_oracle_rejects_tampered_lhv_outputs(tmp_path):
    jobs = {j.out: j for j in W.lhv_jobs(tmp_path, "t", 4) if j.kind != "lhv-api"}
    for job in jobs.values():
        _run_ok(job)
    model, infeasible, sim, chsh = jobs
    doc = json.loads(Path(model).read_text())
    doc["weights"][0] += 1e-6
    doc["weights"][1] -= 1e-6
    Path(model).write_text(json.dumps(doc))
    assert "exact" in oracle.check_job(jobs[model])
    doc = json.loads(Path(infeasible).read_text())
    Path(infeasible).write_text(json.dumps(dict(doc, bound=doc["bound"] + 0.5)))
    assert oracle.check_job(jobs[infeasible]) is not None
    doc = json.loads(Path(sim).read_text())
    dist = next(iter(doc["profiles"].values()))["dist"]
    a, b = list(dist)[:2]
    dist[a], dist[b] = dist[a] + 0.05, dist[b] - 0.05
    Path(sim).write_text(json.dumps(doc))
    assert oracle.check_job(jobs[sim]) is not None
    lines = Path(chsh).read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",-2.5"
    Path(chsh).write_text("\n".join(lines) + "\n")
    assert oracle.check_job(jobs[chsh]) is not None


def test_oracle_checks_api_results():
    eq = tuple(qsim.BlochAxis(math.pi / 2, a) for a in (0.0, math.pi / 2))
    table = qsim.quantum_table(qsim.singlet_state(), (eq, eq))
    model = qsim.find_local_model(table, qsim.CommTopology(2, ((1, 0),)))
    state, alphabets = "singlet", [[oracle.equatorial(a) for a in (0.0, math.pi / 2)]] * 2
    target = oracle.target_table(oracle.state_vector(state, 2), alphabets)
    doc = oracle.api_result_doc(model)
    assert oracle.check_model(doc, target, True, [(1, 0)]) is None
    doc["exact_weights"] = [w * 2 for w in doc["exact_weights"]]
    assert oracle.check_model(doc, target, True, [(1, 0)]) is not None


def test_reference_digests_match_and_catch_changed_bytes(tmp_path):
    n, problems = oracle.check_references("sv-shots", tmp_path, qsim.cli.cli_dispatch)
    assert (n, problems) == (1, [])

    def tampering(argv):
        rc = qsim.cli.cli_dispatch(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(out.read_text().replace('"seed"', '"seed" '))
        return rc

    assert len(oracle.check_references("sv-shots", tmp_path, tampering)[1]) == 1
