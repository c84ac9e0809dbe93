"""The summary ``scripts/bench_pairs.py`` writes into a BENCH file: each
side's spread, and whether a metric is resolved and within its bound."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_METRICS = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "job_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _summary(parent: dict, change: dict) -> dict:
    """``summarise`` of runs whose metric ``name`` takes the values
    ``parent[name]`` and ``change[name]`` in turn."""
    def side(values):
        return [{"metrics": {name: {"value": v[k]} for name, v in values.items()}}
                for k in range(len(next(iter(values.values()))))]

    return bench_pairs.summarise(_METRICS, {"parent": side(parent), "change": side(change)})


def test_a_gain_every_change_run_wins_is_resolved_however_wide_its_spread():
    # the parent's quartiles lie 0.5 of its median apart, but every change
    # run beats every parent run
    parent = {"jobs_per_s": [8.0, 12.0, 10.0, 6.0, 14.0], "job_p50_s": [1.0] * 5}
    change = {"jobs_per_s": [15.0, 16.0, 15.5, 17.0, 16.5], "job_p50_s": [1.0] * 5}
    out = _summary(parent, change)["jobs_per_s"]
    assert out["parent"]["spread"] == pytest.approx((12.0 - 8.0) / 10.0)
    assert out["change"]["spread"] == pytest.approx((16.5 - 15.5) / 16.0)
    assert out["resolved"] and out["within_bound"] and out["wins"] == 5


def test_overlapping_runs_wider_than_the_bound_are_unresolved():
    parent = {"jobs_per_s": [10.0] * 5, "job_p50_s": [1.0, 2.0, 1.5, 0.5, 2.5]}
    change = {"jobs_per_s": [10.0] * 5, "job_p50_s": [2.0, 1.0, 1.5, 2.5, 0.5]}
    summary = _summary(parent, change)
    out = summary["job_p50_s"]
    assert out["parent"]["spread"] == pytest.approx(1.0 / 1.5) and not out["resolved"]
    assert out["within_bound"]
    assert summary["jobs_per_s"]["resolved"] and summary["jobs_per_s"]["parent"]["spread"] == 0
    assert bench_pairs.flagged("w", summary) == [
        "# w job_p50_s: unresolved, within its bound 0.25; change/parent 1, "
        "spread 0.667 parent and 0.667 change"]


def test_a_loss_past_the_bound_is_outside_it():
    # the change's median p50 is 1.3 times the parent's, past 1 + 0.25;
    # and a throughput 0.76 of the parent's is just within 1 - 0.25
    parent = {"jobs_per_s": [10.0] * 4, "job_p50_s": [1.0] * 4}
    change = {"jobs_per_s": [7.6] * 4, "job_p50_s": [1.3] * 4}
    summary = _summary(parent, change)
    assert summary["job_p50_s"]["resolved"] and not summary["job_p50_s"]["within_bound"]
    assert summary["jobs_per_s"]["within_bound"] and summary["jobs_per_s"]["wins"] == 0
    assert [line.split(":")[0] for line in bench_pairs.flagged("w", summary)] == ["# w job_p50_s"]


def _main(tmp_path, monkeypatch, *flags) -> tuple[dict, list]:
    """``main`` on a one-workload BENCHMARK.json in ``tmp_path``, with git,
    the machine and the benchmark runs stood in for; returns the report and, for each
    ``perfbench/run.py`` call, its working directory and ``--seed``."""
    spec = {"run_seconds": 2, "workloads": [{"name": "w"}], "end_to_end": _METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    calls = []

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            out = b"" if cmd[1] == "archive" else "abc123"
        elif cmd[0] == "tar":
            out = None
        else:
            assert cmd[1].endswith("perfbench/run.py")
            calls.append((Path(kwargs["cwd"]), cmd[cmd.index("--seed") + 1]))
            metrics = {m["name"]: {"value": 1.0} for m in _METRICS}
            out = "# progress\n" + json.dumps({"correct": True, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=out)

    monkeypatch.setattr(bench_pairs, "machine", dict)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--out", str(out), *flags]) == 0
    return json.loads(out.read_text()), calls


def test_seed_and_pairs_reach_every_run_and_the_report(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    report, calls = _main(tmp_path, monkeypatch, "--seed", "3")
    assert report["settings"]["seed"] == 3 and report["settings"]["pairs"] == 2
    assert report["workloads"]["w"]["metrics"]["jobs_per_s"]["pairs"] == 2
    # the parent runs first in the first pair and the change in the second
    assert calls == [(calls[0][0], "3"), (tmp_path, "3"), (tmp_path, "3"), (calls[0][0], "3")]
    assert calls[0][0] != tmp_path


def test_seed_and_pairs_default_to_one_and_ten(tmp_path, monkeypatch):
    report, calls = _main(tmp_path, monkeypatch)
    assert report["settings"]["seed"] == 1 and report["settings"]["pairs"] == 10
    assert [seed for _, seed in calls] == ["1"] * 20
