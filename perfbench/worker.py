"""One workload's closed loop, run in its own process.

A single client sends one job at a time: a ``qsim`` command line through
``qsim.cli.cli_dispatch`` on generated files, or a documented-API call
where the CLI cannot express the input.  Each job is timed alone; its
output is checked right after, outside the timer.  The worker runs a
fixed number of whole cycles, so every commit runs the same jobs.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 perfbench/worker.py --workload sv-shots --seed 1 --cycles 3 \
        --trace 0 --workdir .bench_build/perfbench/x --result result.json
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracer as T
import workloads as W

# Stop starting cycles after this long, so a badly slowed commit still
# finishes inside the benchmark's time limit.
TIMED_CAP_S = 60.0


def _api(name):
    """Documented-API jobs; names are looked up at call time so the
    traced run sees its wrappers."""
    import qsim

    if name == "ghz3-equatorial":
        eq = tuple(qsim.BlochAxis(math.pi / 2, a) for a in W.EQUATORIAL_3)
        table = qsim.quantum_table(qsim.ghz_state(3), (eq,) * 3)
        return qsim.find_local_model(table, qsim.CommTopology(3, ((1, 0),)))
    if name == "ghz4-xy":
        xy = (qsim.PauliAxis.X, qsim.PauliAxis.Y)
        table = qsim.quantum_table(qsim.ghz_state(4), (xy,) * 4)
        return qsim.find_local_model(table, qsim.CommTopology(4, ((1, 0), (2, 0))))
    if name == "singlet-float":
        alice = tuple(qsim.BlochAxis(math.pi / 2, a) for a in W.SINGLET_ALICE)
        bob = tuple(qsim.BlochAxis(math.pi / 2, a) for a in W.SINGLET_BOB)
        table = qsim.quantum_table(qsim.singlet_state(), (alice, bob))
        return qsim.find_local_model(table, qsim.CommTopology(2, ((1, 0),)))
    raise ValueError(f"unknown API job {name!r}")


def fresh_process_state() -> None:
    """Empty every ``functools`` cache in qsim and collect garbage, so a
    job pays what it would pay in a fresh ``qsim`` invocation and its
    cost does not depend on which jobs ran before it."""
    for module in T.qsim_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    gc.collect()


def run_job(job: W.Job) -> tuple[float, str | None]:
    """Latency of one job and, if it failed, why."""
    import qsim.cli

    fresh_process_state()
    t0 = time.perf_counter()
    try:
        if job.argv is not None:
            rc, result = qsim.cli.cli_dispatch(job.argv), None
        else:
            rc, result = 0, _api(job.api)
    except Exception:  # a crashing job is a failed job; the loop goes on
        latency = time.perf_counter() - t0
        return latency, traceback.format_exc(limit=3)
    latency = time.perf_counter() - t0
    if rc != 0:
        return latency, f"exit code {rc}"
    try:
        return latency, oracle.check_job(job, None if result is None else oracle.api_result_doc(result))
    except Exception:
        return latency, "output check crashed: " + traceback.format_exc(limit=3)


def determined_share(circuits) -> float:
    """Share of measurements with p_plus in {0, 1} over a one-shot replay
    of each circuit through the single-tableau API."""
    import qsim

    determined = total = 0
    for circuit in circuits:
        t = qsim.init_tableau(circuit.n_qubits)
        bits = [0] * circuit.n_cbits
        rng = qsim.stream(0)
        for op in circuit.ops:
            if type(op).__name__ == "Measure":
                m = qsim.measure_pauli(t, op.qubit, op.axis, rng)
                determined += m.p_plus in (0.0, 1.0)
                total += 1
                bits[op.dest] = (1 - m.outcome) // 2
            elif op.condition is None or bits[op.condition]:
                qsim.apply_clifford(t, dataclasses.replace(op, condition=None))
    return determined / total if total else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one workload's closed loop.")
    p.add_argument("--workload", choices=W.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = p.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    rec = None
    if args.trace:
        rec = T.Recorder()
        rec.install(*T.LINPROG)  # before qsim, so qsim.lhv binds the wrapper
    import qsim.cli

    # Warm-up, untimed and unrecorded.
    if qsim.cli.cli_dispatch(W.setup_argv(args.workload, workdir)) != 0:
        print("warm-up job failed", file=sys.stderr)
        return 1
    for job in W.warmup_jobs(args.workload, workdir):
        fresh_process_state()
        if qsim.cli.cli_dispatch(job.argv) != 0:
            print("warm-up job failed", file=sys.stderr)
            return 1
    if rec is not None:
        for target in T.TARGETS:
            rec.install(*target)
        rec.spans.clear()

    latencies: list[float] = []
    kinds: list[str] = []
    failures: list[str] = []
    start = time.perf_counter()
    for cycle in range(args.cycles):
        if cycle and time.perf_counter() - start > TIMED_CAP_S:
            break
        for job in W.cycle_jobs(args.workload, args.seed, cycle, workdir):
            if rec is not None:
                rec.job = len(latencies)
            latency, problem = run_job(job)
            if rec is not None:
                rec.job = None
            latencies.append(latency)
            kinds.append(job.kind)
            if problem:
                failures.append(f"cycle {cycle} {job.kind} {job.argv or job.api}: {problem}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"latencies": latencies, "kinds": kinds, "peak_rss_mb": peak_rss_mb}
    if rec is None:
        n_refs, problems = oracle.check_references(args.workload, workdir, qsim.cli.cli_dispatch)
        failures += problems
        result["reference_jobs"] = n_refs
    else:
        rec.restore()
        layers = T.layer_metrics(rec.spans, len(latencies))
        first_of_kind = {}
        for job, circuit in rec.stab_circuits:
            first_of_kind.setdefault(kinds[job], circuit)
        layers["stabilizer.determined_share"] = determined_share(first_of_kind.values())
        cov = T.coverage(rec.spans, latencies)
        result.update(layers=layers, coverage=cov, absent=rec.absent)
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "job", "counts"],
                 "kinds": kinds, "absent": rec.absent, "spans": rec.spans}))
    result["failures"] = failures
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
