"""Alternated parent/change pairs of the benchmark, summarised as a BENCH file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out bench.json

Run it from the root of a qsim checkout: that working tree is the change.
The parent revision is exported with ``git archive`` into a temporary
directory (``TMPDIR``), removed again at the end.  Every workload of
``BENCHMARK.json`` gets ``PAIRS`` pairs at seed ``SEED``; pair ``i`` runs
``perfbench/run.py --trace 0`` once on each side, the parent first in
even pairs and the change first in odd ones.  Both sides run this
checkout's ``perfbench/``, so the benchmark code is identical; each
imports qsim from its own ``src``.

For every workload and end-to-end metric of ``BENCHMARK.json`` the file
records each side's runs, median and quartiles, how many pairs the change
won (ties count for neither), and whether every run was correct, plus
the machine the runs were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PAIRS = 10
SEED = 1


def _git(*args, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "system": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def run_once(bench: Path, root: Path, workload: str, seconds: float) -> dict:
    """One benchmark run in ``root``; its final JSON report line."""
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--out", required=True, help="where to write the BENCH json")
    args = p.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parent_rev = _git("rev-parse", args.parent, cwd=root)
    bench = root / "perfbench"

    report = {
        "parent": parent_rev,
        "change": f"working tree on {_git('rev-parse', 'HEAD', cwd=root)}",
        "machine": machine(),
        "settings": {"pairs": PAIRS, "seed": SEED, "seconds": seconds,
                     "order": "parent first in even pairs, change first in odd pairs"},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="qsim-parent-") as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        archive = subprocess.run(["git", "archive", parent_rev], cwd=root, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_root)], input=archive, check=True)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                sides = [("parent", parent_root), ("change", root)]
                for side, side_root in sides if i % 2 == 0 else sides[::-1]:
                    runs[side].append(run_once(bench, side_root, workload, seconds))
                print(f"# {workload} pair {i + 1}/{PAIRS}: " + ", ".join(
                    f"{s} {runs[s][-1]['metrics']['jobs_per_s']['value']:.3f} jobs/s"
                    for s in runs), file=sys.stderr)
            report["workloads"][workload] = {
                "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "metrics": summarise(spec["end_to_end"], runs),
            }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
