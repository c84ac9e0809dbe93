"""qsim's benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sv-shots --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Run it from the root of a qsim checkout; qsim is imported from ``src``.
Each workload runs in one worker process (``worker.py``) as a closed
loop with a single client.  ``--seconds`` fixes how many whole cycles of
the workload's job mix run: the number closest to that time at the seed
commit's cycle times (``workloads.CYCLE_SECONDS``), so every commit runs
exactly the same jobs and the tail percentile means the same thing.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs half
the cycles untraced and half traced, and reports the per-layer split
(``tracer.py``) plus ``trace.overhead``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The output checks are in ``oracle.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as T
import workloads as W

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
IMPORT_RUNS = 3
# Every run of one workload ends within this many seconds, whatever the
# commit under test does: subprocesses get what is left of it.
RUN_LIMIT_S = 170.0

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The console-script entry point, as an installed ``qsim`` runs it.
CONSOLE_SCRIPT = "import sys; from qsim.cli import main; sys.argv[0] = 'qsim'; sys.exit(main())"
IMPORT_PROBE = (
    "import json, sys, time; t = time.perf_counter(); import qsim.cli; "
    "print(json.dumps([time.perf_counter() - t, 'scipy.optimize' in sys.modules]))"
)


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples beyond)``.  That is the 11th largest
    sample.  When that is not above the median (20 samples or fewer), no
    tail percentile exists and the maximum is reported instead, as
    percentile 100 with 0 samples beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / W.CYCLE_SECONDS[workload]))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _left(deadline: float, reserve: float = 0.0) -> float:
    left = deadline - time.monotonic() - reserve
    if left <= 0:
        raise subprocess.TimeoutExpired("qsim benchmark", RUN_LIMIT_S)
    return left


def run_worker(workload, seed, cycles, trace, workdir: Path, timeout: float) -> dict:
    result = workdir / f"worker-{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--cycles", str(cycles), "--trace", str(trace), "--workdir", str(workdir / "jobs"),
           "--result", str(result)]
    if trace:
        cmd += ["--spans", str(workdir.parent / f"spans-{workload}-s{seed}.json")]
    subprocess.run(cmd, env=_env(), check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    return json.loads(result.read_text())


def measure_setup(workload: str, workdir: Path, deadline: float) -> tuple[list[float], int]:
    """Wall times of fresh interpreters running the workload's smallest
    job through the console-script entry point, and how many failed."""
    argv = W.setup_argv(workload, workdir)
    times, failed = [], 0
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv], env=_env(),
                              stdout=subprocess.DEVNULL, timeout=_left(deadline))
        times.append(time.perf_counter() - t0)
        failed += proc.returncode != 0
    return times, failed


def measure_import(deadline: float) -> tuple[float, float]:
    """Median ``import qsim.cli`` time in fresh interpreters, and whether
    that import loads ``scipy.optimize``."""
    samples = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(), check=True,
                             capture_output=True, text=True, timeout=_left(deadline)).stdout
        samples.append(json.loads(out.splitlines()[-1]))
    return statistics.median(s[0] for s in samples), float(any(s[1] for s in samples))


def bench(workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> dict:
    """Run one workload; returns the result object and prints the report."""
    deadline = time.monotonic() + RUN_LIMIT_S
    cycles = cycles_for(workload, seconds / (2 if trace else 1))
    reserve = 10.0 if not trace else RUN_LIMIT_S / 2
    plain = run_worker(workload, seed, cycles, 0, workdir, _left(deadline, reserve))
    failures = list(plain["failures"])
    attempted = len(plain["latencies"]) + plain["reference_jobs"]
    lat = plain["latencies"]
    jobs_per_s = len(lat) / sum(lat)
    print(f"# {workload}  seed {seed}  {len(lat)} jobs in {cycles} cycle(s), "
          f"closed loop, 1 client, trace {trace}")
    if not trace:
        setup, setup_failed = measure_setup(workload, workdir, deadline)
        attempted += len(setup)
        failures += [f"set-up run failed ({workload})"] * setup_failed
        value, pct, beyond = tail(lat)
        metrics = {
            "jobs_per_s": jobs_per_s,
            "job_p50_s": statistics.median(lat),
            "job_tail_s": value,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        units = E2E_UNITS
        print(f"# job_tail_s is percentile {pct:.4g} of {len(lat)} samples, {beyond} beyond it; "
              f"setup_s is the median of {len(setup)} fresh interpreters")
    else:
        traced = run_worker(workload, seed, cycles, 1, workdir, _left(deadline, 5.0))
        failures += traced["failures"]
        attempted += len(traced["latencies"])
        tl = traced["latencies"]
        metrics = dict(traced["layers"])
        metrics["import.qsim_cli_s"], metrics["import.scipy_loaded"] = measure_import(deadline)
        metrics["trace.overhead"] = 1.0 - (len(tl) / sum(tl)) / jobs_per_s
        covered = sum(c * t for c, t in zip(traced["coverage"], tl))
        metrics["trace.coverage"] = covered / sum(tl)
        metrics = {k: metrics[k] for k in T.LAYER_UNITS}
        units = T.LAYER_UNITS
        print(f"# top-level spans cover {min(traced['coverage']):.4f} to "
              f"{max(traced['coverage']):.4f} of each job's wall time")
        print(f"# input properties: history_ratio {metrics['statevector.history_ratio']:.4g}, "
              f"determined_share {metrics['stabilizer.determined_share']:.4g}, "
              f"lp_columns/strategies {metrics['lhv.lp_columns']:.6g}/"
              f"{metrics['lhv.strategies']:.6g} per job")
        if traced["absent"]:
            print(f"# absent (reported as 0): {', '.join(traced['absent'])}")
    for problem in failures:
        print(f"# FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':40s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qsim benchmark")
    p.add_argument("--workload", choices=W.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qsim" / "cli.py").is_file():
        print("error: run from the root of a qsim checkout (src/qsim is missing)", file=sys.stderr)
        return 2
    workloads = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        workdir = root / ".bench_build" / "perfbench" / f"{workload}-s{args.seed}-p{os.getpid()}"
        try:
            results[workload] = bench(workload, args.seed, args.seconds, args.trace, workdir)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.workload == "all":
        for workload, res in results.items():
            print(json.dumps({"workload": workload, **res}))
        return 0
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
