"""Output checks, run outside the timed phase.

Nothing here calls into qsim: the target tables, the strategy
enumeration behind certificate checks and the model evaluation are
written out again from their definitions, so a defect in qsim cannot
hide itself.  Three kinds of check:

* every timed job's output is checked for its invariants (counts add up
  to the shots, GHZ outcomes agree, models reproduce the target,
  certificates separate the target from every deterministic strategy,
  sampled frequencies sit near the model's table, the CHSH curve follows
  -3 cos t + cos 3t);
* a fixed reference set of seeded ``run`` and ``lhv simulate`` jobs is
  compared byte for byte with SHA-256 digests recorded at the seed
  commit (``refs.json``), which enforces the reproducibility contract;
* the documented-API results are verified like the CLI ones.

``python3 perfbench/oracle.py --record`` (with ``PYTHONPATH=src``)
rewrites ``refs.json``; do that only on a commit whose outputs are the
reference.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads as W

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"
REF_MODEL = HERE / "refs" / "ghz3-1bit-model.json"
REF_SEED = 20260417
RNG_ID = "philox4x64-10"

# ---------------------------------------------------------------------------
# Settings and target tables, from the definitions


def pauli(label: str) -> tuple[float, float]:
    """(theta, phi) of a Pauli axis on the Bloch sphere."""
    return {"X": (math.pi / 2, 0.0), "Y": (math.pi / 2, math.pi / 2), "Z": (0.0, 0.0)}[label]


def equatorial(phi: float) -> tuple[float, float]:
    return (math.pi / 2, phi % (2 * math.pi))


def state_vector(name: str, parties: int) -> np.ndarray:
    psi = np.zeros(1 << parties, dtype=complex)
    if name == "singlet":  # (|01> - |10>)/sqrt 2, qubit 0 leftmost
        psi[0b01], psi[0b10] = 1, -1
    elif name == "ghz":
        psi[0], psi[-1] = 1, 1
    else:
        raise ValueError(name)
    return psi / np.linalg.norm(psi)


def _basis_rows(theta: float, phi: float) -> np.ndarray:
    """Rows are <+n| and <-n| for the axis n(theta, phi)."""
    c, s, e = math.cos(theta / 2), math.sin(theta / 2), complex(math.cos(phi), math.sin(phi))
    plus = np.array([c, e * s])
    minus = np.array([s, -e * c])
    return np.conj(np.stack([plus, minus]))


def target_table(psi: np.ndarray, alphabets) -> np.ndarray:
    """(profiles, 2**parties) outcome distributions: profiles in
    lexicographic product order, outcome index with party 0 as the top
    bit and bit 1 meaning -1."""
    parties = len(alphabets)
    tensor = psi.reshape((2,) * parties)
    rows = []
    for profile in itertools.product(*alphabets):
        amp = tensor
        for p, axis in enumerate(profile):
            amp = np.moveaxis(np.tensordot(_basis_rows(*axis), amp, axes=([1], [p])), 0, p)
        rows.append((np.abs(amp) ** 2).ravel())
    return np.array(rows)


# ---------------------------------------------------------------------------
# Deterministic strategies


def _layout(sizes, messages):
    """Receive counts per party, and bits each sender holds per message."""
    seen = [0] * len(sizes)
    pre = []
    for snd, rcv in messages:
        pre.append(seen[snd])
        seen[rcv] += 1
    return seen, pre


def strategy_count(sizes, messages) -> int:
    inbits, pre = _layout(sizes, messages)
    cells = sum(m << b for m, b in zip(sizes, inbits))
    cells += sum(sizes[snd] << pre[k] for k, (snd, _) in enumerate(messages))
    return 1 << cells


def all_strategy_rows(sizes, messages) -> np.ndarray:
    """Outcome index of every deterministic strategy on every profile,
    shape (profiles, strategies).  Each free table cell is one bit of
    the strategy number; the order of cells is irrelevant here because
    only the set of strategies matters."""
    inbits, pre = _layout(sizes, messages)
    parties = len(sizes)
    count = strategy_count(sizes, messages)
    s = np.arange(count, dtype=np.int64)
    pos = 0
    out_cell, msg_cell = [], []
    for p in range(parties):
        out_cell.append(pos)
        pos += sizes[p] << inbits[p]
    for k, (snd, _) in enumerate(messages):
        msg_cell.append(pos)
        pos += sizes[snd] << pre[k]
    rows = []
    for setting in itertools.product(*(range(m) for m in sizes)):
        rec = [np.zeros(count, dtype=np.int64) for _ in range(parties)]
        got = [0] * parties
        for k, (snd, rcv) in enumerate(messages):
            cell = msg_cell[k] + (setting[snd] << pre[k]) + rec[snd]
            rec[rcv] = rec[rcv] | (((s >> cell) & 1) << got[rcv])
            got[rcv] += 1
        out = np.zeros(count, dtype=np.int64)
        for p in range(parties):
            cell = out_cell[p] + (setting[p] << inbits[p]) + rec[p]
            out = (out << 1) | ((s >> cell) & 1)
        rows.append(out)
    return np.array(rows)


def model_rows(strategies, sizes, messages) -> np.ndarray:
    """Outcome index of each given strategy on every profile."""
    parties = len(sizes)
    rows = np.zeros((math.prod(sizes), len(strategies)), dtype=np.int64)
    for j, st in enumerate(strategies):
        for i, setting in enumerate(itertools.product(*(range(m) for m in sizes))):
            rec = [0] * parties
            got = [0] * parties
            for k, (snd, rcv) in enumerate(messages):
                rec[rcv] |= st["messages"][k][setting[snd]][rec[snd]] << got[rcv]
                got[rcv] += 1
            idx = 0
            for p in range(parties):
                idx = (idx << 1) | (st["outputs"][p][setting[p]][rec[p]] == -1)
            rows[i, j] = idx
    return rows


# ---------------------------------------------------------------------------
# Checks; each returns None when the output is right, else a reason


def check_model(doc, target: np.ndarray, exact: bool, messages) -> str | None:
    sizes = [len(a) for a in doc["alphabets"]]
    if [tuple(m) for m in doc["topology"]["messages"]] != [tuple(m) for m in messages]:
        return f"model topology {doc['topology']} is not the requested one"
    rows = model_rows(doc["strategies"], sizes, messages)
    n_out = target.shape[1]
    if exact:
        weights = doc.get("exact_weights") or [
            Fraction(repr(float(w))).limit_denominator(1 << 16) for w in doc["weights"]
        ]
        if any(w < 0 for w in weights) or sum(weights) != 1:
            return "exact weights are negative or do not sum to 1"
        acc = [[Fraction(0)] * n_out for _ in range(rows.shape[0])]
        for j, w in enumerate(weights):
            for i in range(rows.shape[0]):
                acc[i][rows[i, j]] += w
        want = [[Fraction(float(x)).limit_denominator(1 << 16) for x in r] for r in target]
        if any(abs(float(x) - t) > 1e-12 for r, tr in zip(want, target) for x, t in zip(r, tr)):
            return "target table is not exact-arithmetic material"
        return None if acc == want else "exact model does not reproduce the target exactly"
    w = np.asarray(doc["weights"], dtype=float)
    if (w < 0).any() or abs(w.sum() - 1) > 1e-9:
        return "weights are negative or do not sum to 1"
    recon = np.zeros_like(target)
    for j, wj in enumerate(w):
        recon[np.arange(rows.shape[0]), rows[:, j]] += wj
    err = float(np.max(np.abs(recon - target)))
    return None if err <= 1e-9 else f"model misses the target by {err:.3g}"


def check_certificate(coefficients, bound, violation, target, sizes, messages) -> str | None:
    y = np.asarray(coefficients, dtype=float).reshape(target.shape)
    if violation <= 0:
        return f"certificate violation {violation} is not positive"
    rows = all_strategy_rows(sizes, messages)
    n_out = target.shape[1]
    per_strategy = y.ravel()[(np.arange(rows.shape[0])[:, None] * n_out + rows)].sum(axis=0)
    worst = float(per_strategy.min())
    if worst < bound - 1e-9:
        return f"a strategy scores {worst} below the certified bound {bound}"
    gap = bound - float((y * target).sum())
    if abs(gap - violation) > 1e-9:
        return f"target misses the bound by {gap}, not the reported {violation}"
    return None


def check_run(job, doc) -> str | None:
    e = job.expect
    for key, want in (("backend", e["backend"]), ("shots", e["shots"]), ("seed", e["seed"]),
                      ("rng_id", RNG_ID)):
        if doc.get(key) != want:
            return f"{key} is {doc.get(key)!r}, expected {want!r}"
    counts = doc["counts"]
    if sum(counts.values()) != e["shots"] or min(counts.values()) < 1:
        return "counts do not add up to the shots"
    width = e["cbits"]
    if any(len(k) != width or k.strip("01") for k in counts):
        return f"a histogram key is not a {width}-bit string"
    if "ghz" in e and not set(counts) <= {"0" * e["ghz"], "1" * e["ghz"]}:
        return "GHZ outcomes disagree between qubits"
    return None


def check_chsh(path: str, steps: int) -> str | None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["theta", "S"] or len(rows) != steps + 2:
        return "CHSH curve has the wrong header or length"
    for k, (t, s) in enumerate(rows[1:]):
        t = float(t)
        want = -3 * math.cos(t) + math.cos(3 * t)
        if abs(t - math.pi * k / steps) > 1e-9 or abs(float(s) - want) > 1e-9:
            return f"CHSH point {k} is ({t}, {s}), expected S = {want}"
    return None


def check_simulate(doc, expect) -> str | None:
    model = json.loads(Path(expect["model"]).read_text())
    if doc["shots"] != expect["shots"] or doc["seed"] != expect["seed"]:
        return "simulate reports the wrong shots or seed"
    if doc["bits_used_per_shot"] != len(model["topology"]["messages"]):
        return "bits used per shot differ from the model's budget"
    sizes = [len(a) for a in model["alphabets"]]
    messages = [tuple(m) for m in model["topology"]["messages"]]
    rows = model_rows(model["strategies"], sizes, messages)
    w = np.asarray(model["weights"], dtype=float)
    parties = len(sizes)
    table = np.zeros((rows.shape[0], 1 << parties))
    for j, wj in enumerate(w):
        table[np.arange(rows.shape[0]), rows[:, j]] += wj
    labels = ["|".join(p) for p in itertools.product(*model["alphabets"])]
    per_profile = expect["shots"] / len(labels)
    for i, label in enumerate(labels):
        got = doc["profiles"].get(label)
        if got is None:
            return f"profile {label} missing"
        freq = np.zeros(1 << parties)
        for outcome, p in got["dist"].items():
            freq[int(outcome.replace("+", "0").replace("-", "1"), 2)] = p
        if abs(freq.sum() - 1) > 1e-9:
            return f"profile {label} frequencies do not sum to 1"
        signs = 1 - 2 * (np.array([bin(k).count("1") for k in range(1 << parties)]) & 1)
        if abs(float(freq @ signs) - got["correlator"]) > 1e-9:
            return f"profile {label} correlator disagrees with its frequencies"
        sigma = np.sqrt(table[i] * (1 - table[i]) / (0.8 * per_profile)) + 1e-12
        if (np.abs(freq - table[i]) > 6 * sigma + 1e-9).any():
            return f"profile {label} frequencies are far from the model's table"
    return None


def _pauli_alphabets(parties):
    return [[pauli(a) for a in "XYZ"]] * parties


def check_lhv_find(job, doc) -> str | None:
    e = job.expect
    parties = 3 if e["state"] == "ghz3" else 2
    target = target_table(state_vector("ghz" if parties == 3 else "singlet", parties),
                          _pauli_alphabets(parties))
    messages = [(1, 0)] if e["bits"] else []
    if e.get("infeasible"):
        if not doc.get("infeasible"):
            return "expected a separating inequality"
        return check_certificate(doc["coefficients"], doc["bound"], doc["violation"], target,
                                 [3] * parties, messages)
    if doc.get("infeasible") or doc["alphabets"] != [list("XYZ")] * parties:
        return "expected a model over the Pauli alphabet"
    return check_model(doc, target, e["exact"], messages)


def api_spec(name):
    """(state, alphabets as (theta, phi), messages, expected kind)."""
    if name == "ghz3-equatorial":
        return "ghz", [[equatorial(a) for a in W.EQUATORIAL_3]] * 3, [(1, 0)], "infeasible"
    if name == "ghz4-xy":
        return "ghz", [[pauli("X"), pauli("Y")]] * 4, [(1, 0), (2, 0)], "exact"
    if name == "singlet-float":
        return ("singlet", [[equatorial(a) for a in W.SINGLET_ALICE],
                            [equatorial(a) for a in W.SINGLET_BOB]], [(1, 0)], "float")
    raise ValueError(f"unknown API job {name!r}")


def api_result_doc(result) -> dict:
    """The fields of a LocalModel / Infeasible that the checks read."""
    if hasattr(result, "coefficients"):
        return {"infeasible": True, "coefficients": np.asarray(result.coefficients).tolist(),
                "bound": float(result.bound), "violation": float(result.violation)}
    doc = {
        "strategies": [{"outputs": s.outputs, "messages": s.messages} for s in result.strategies],
        "weights": [float(w) for w in result.weights],
        "topology": {"messages": [list(m) for m in result.topology.messages]},
        "alphabets": result.alphabets,
    }
    if result.exact_weights is not None:
        doc["exact_weights"] = list(result.exact_weights)
    return doc


def check_api(name, doc) -> str | None:
    state, alphabets, messages, kind = api_spec(name)
    target = target_table(state_vector(state, len(alphabets)), alphabets)
    if kind == "infeasible":
        if not doc.get("infeasible"):
            return "expected a separating inequality"
        return check_certificate(doc["coefficients"], doc["bound"], doc["violation"], target,
                                 [len(a) for a in alphabets], messages)
    if doc.get("infeasible"):
        return "expected a local model"
    if kind == "exact" and "exact_weights" not in doc:
        return "expected exact rational weights"
    return check_model(doc, target, kind == "exact", messages)


def check_job(job, api_doc=None) -> str | None:
    """Check one finished job; ``api_doc`` is ``api_result_doc`` of an
    API job's return value."""
    if job.api is not None:
        return check_api(job.api, api_doc)
    if job.kind == "chsh":
        return check_chsh(job.out, job.expect["steps"])
    doc = json.loads(Path(job.out).read_text())
    if job.kind == "lhv-find":
        return check_lhv_find(job, doc)
    if job.kind == "lhv-simulate":
        return check_simulate(doc, job.expect)
    return check_run(job, doc)


# ---------------------------------------------------------------------------
# Byte-for-byte references


def reference_jobs(workload: str, workdir: Path) -> list[W.Job]:
    """Small seeded jobs on the same generators and code paths as the
    workload, fixed independently of ``--seed``."""
    rng = W.rng_for("reference", workload)
    tag = f"ref-{workload}"
    if workload == "sv-shots":
        specs = [("dense", W.dense_circuit(rng, 5, 40, 3), 500)]
    elif workload == "sv-wide":
        specs = [("dense", W.dense_circuit(rng, 10, 30, 4, prefix_measure_all=True), 8)]
    elif workload == "stab-mix":
        specs = [
            ("ghz", W.ghz_circuit(50), 1),
            ("clifford", W.clifford_circuit(rng, 32, 320, random_axes=True), 256),
            ("syndrome", W.syndrome_circuit(rng, 40, 6), 512),
            ("many-shots", W.clifford_circuit(rng, 16, 160, random_axes=False), 5000),
        ]
    elif workload == "lhv-lab":
        out = str(workdir / f"{tag}-sim.json")
        return [W.Job("lhv-simulate", out=out,
                      argv=["lhv", "simulate", "--model", str(REF_MODEL), "--shots", "1000000",
                            "--seed", str(REF_SEED), "--out", out])]
    else:
        raise ValueError(workload)
    return [W.run_job(kind, workdir, f"{tag}{i}", text, shots, REF_SEED + i, {})
            for i, (kind, text, shots) in enumerate(specs)]


def digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_references(workload: str, workdir: Path, dispatch) -> tuple[int, list[str]]:
    """Run the reference jobs through ``dispatch`` (``cli_dispatch``) and
    compare output digests; returns the job count and one message per
    mismatch."""
    refs = json.loads(REFS.read_text())[workload]
    jobs = reference_jobs(workload, workdir)
    problems = []
    for i, job in enumerate(jobs):
        rc = dispatch(job.argv)
        got = digest(job.out) if rc == 0 else f"exit {rc}"
        if got != refs[i]:
            problems.append(f"reference job {i} of {workload}: output digest {got} "
                            f"differs from the seed commit's {refs[i]}")
    return len(jobs), problems


def _record(workdir: Path) -> None:
    from qsim.cli import cli_dispatch

    workdir.mkdir(parents=True, exist_ok=True)
    REF_MODEL.parent.mkdir(exist_ok=True)
    if cli_dispatch(["lhv", "find", "--state", "ghz3", "--bits", "1", "--topology", "2>1",
                     "--out", str(REF_MODEL)]):
        raise SystemExit("could not write the reference model")
    refs = {}
    for workload in W.WORKLOADS:
        refs[workload] = []
        for job in reference_jobs(workload, workdir):
            if cli_dispatch(job.argv):
                raise SystemExit(f"reference job failed: {job.argv}")
            refs[workload].append(digest(job.out))
    REFS.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="rewrite refs.json and the reference model from this commit")
    parser.add_argument("--workdir", default=".bench_build/perfbench/record")
    args = parser.parse_args()
    sys.exit(_record(Path(args.workdir)))
