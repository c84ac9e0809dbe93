"""The ``qsim`` command-line front end.

Subcommands: ``run`` (simulate a circuit file, auto-dispatching to the
tableau backend when the circuit allows it), ``bench`` (scaling
curves), ``bell chsh`` (the rotated-basis CHSH sweep), ``lhv find``
(LP search for a communication-assisted local model) and ``lhv
simulate`` (execute a found model shot by shot).

Exit codes: 0 success, 2 for usage/input problems (bad flags, missing
or malformed files), 3 for simulation-domain failures (non-Clifford op
sent to the tableau backend, qubit caps, strategy caps).

All artifacts are byte-stable for fixed inputs: JSON is emitted with
sorted keys and floats rounded to 12 significant digits; CSV uses the
same float formatting.  The default seed comes from ``QSIM_SEED`` when
set (otherwise 0); ``--seed`` wins over the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import BenchReport, bench_scaling, dispatch_run
from .circuit import PauliAxis
from .errors import ParseError, QsimError
from .lang import parse_circuit
from .lhv import (
    PAULI_ALPHABET,
    CommTopology,
    CorrelationTable,
    DeterministicStrategy,
    Infeasible,
    LocalModel,
    correlator,
    chsh_sweep,
    find_local_model,
    ghz_state,
    index_outcomes,
    quantum_table,
    simulate_model,
    singlet_state,
)
from .result import RunResult
from .statevector import BlochAxis

_STATES = {
    "singlet": (singlet_state, 2),
    "ghz3": (lambda: ghz_state(3), 3),
}


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _fmt12(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _clean(obj):
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _sig12(obj)
    if hasattr(obj, "item"):  # numpy scalars
        return _clean(obj.item())
    return obj


def _render_json(payload: dict) -> str:
    return json.dumps(_clean(payload), sort_keys=True, indent=2) + "\n"


def _render_run(result: RunResult) -> str:
    """A run report, byte-identical to :func:`_render_json` of its fields.

    The indenting encoder is pure Python and slow on hundreds of
    thousands of counts, so the ``counts`` block goes through the C
    encoder instead, with an item separator that puts one entry on each
    line, and is spliced into the rendered scalar fields.
    """
    counts = json.dumps(result.counts, sort_keys=True, separators=(",\n    ", ": "), default=_clean)
    if result.counts:
        counts = "{\n    " + counts[1:-1] + "\n  }"
    text = _render_json({
        "backend": result.backend,
        "shots": result.shots,
        "seed": result.seed,
        "rng_id": result.rng_id,
        "counts": {},
    })
    return text.replace('"counts": {}', '"counts": ' + counts, 1)


def _render_csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt12(v) for v in row))
    return "\n".join(lines) + "\n"


def _axis_label(axis) -> str:
    if isinstance(axis, PauliAxis):
        return axis.value
    return f"{_fmt12(axis.theta)},{_fmt12(axis.phi)}"


def _axis_to_json(axis):
    if isinstance(axis, PauliAxis):
        return axis.value
    return [_sig12(axis.theta), _sig12(axis.phi)]


def _axis_from_json(v):
    if isinstance(v, str):
        return PauliAxis[v]
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return BlochAxis(float(v[0]), float(v[1]))
    raise ValueError(f"bad axis entry {v!r} in model file")


def _table_to_json(table: CorrelationTable) -> dict:
    profiles = {}
    for profile in table.profiles():
        label = "|".join(_axis_label(a) for a in profile)
        dist = table._dist(profile)
        profiles[label] = {
            "".join("+" if o == 1 else "-" for o in index_outcomes(i, table.parties)): float(p)
            for i, p in enumerate(dist)
        }
    return {
        "alphabets": [[_axis_to_json(a) for a in alpha] for alpha in table.alphabets],
        "profiles": profiles,
    }


def model_to_json(model: LocalModel) -> dict:
    """Model file schema: topology (0-indexed parties), strategies as
    nested output/message tables, weights, plus the setting alphabets
    needed to read the tables back."""
    return {
        "alphabets": [[_axis_to_json(a) for a in alpha] for alpha in model.alphabets],
        "topology": {
            "parties": model.topology.parties,
            "messages": [list(m) for m in model.topology.messages],
        },
        "strategies": [
            {
                "outputs": [[list(row) for row in party] for party in s.outputs],
                "messages": [[list(row) for row in m] for m in s.messages],
            }
            for s in model.strategies
        ],
        "weights": [float(w) for w in model.weights],
    }


def model_from_json(doc: dict) -> LocalModel:
    try:
        topology = CommTopology(
            parties=int(doc["topology"]["parties"]),
            messages=tuple((int(s), int(r)) for s, r in doc["topology"]["messages"]),
        )
        alphabets = tuple(
            tuple(_axis_from_json(a) for a in alpha) for alpha in doc["alphabets"]
        )
        strategies = tuple(
            DeterministicStrategy(
                outputs=tuple(
                    tuple(tuple(int(v) for v in row) for row in party)
                    for party in s["outputs"]
                ),
                messages=tuple(
                    tuple(tuple(int(v) for v in row) for row in m)
                    for m in s.get("messages", [])
                ),
            )
            for s in doc["strategies"]
        )
        weights = tuple(float(w) for w in doc["weights"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed model file: {exc!r}") from None
    return LocalModel(
        strategies=strategies,
        weights=weights,
        topology=topology,
        alphabets=alphabets,
    )


def write_report(payload, format: str, path: str | None) -> None:
    """Render a result object and write it (stdout when path is None).

    JSON gets sorted keys and 12-significant-digit floats; CSV the same
    float format — identical inputs give identical bytes.
    """
    if format == "json" and isinstance(payload, RunResult):
        text = _render_run(payload)
    elif format == "json":
        if isinstance(payload, BenchReport):
            payload = {
                "backend": payload.backend,
                "growth": payload.growth,
                "rows": [
                    {"n": r.n, "depth": r.depth, "shots": r.shots, "seconds": r.seconds}
                    for r in payload.rows
                ],
            }
        elif isinstance(payload, CorrelationTable):
            payload = _table_to_json(payload)
        elif isinstance(payload, LocalModel):
            payload = model_to_json(payload)
        elif not isinstance(payload, dict):
            raise ValueError(f"cannot render {type(payload).__name__} as json")
        text = _render_json(payload)
    elif format == "csv":
        if isinstance(payload, BenchReport):
            text = _render_csv(
                ("n", "depth", "shots", "seconds"),
                ((r.n, r.depth, r.shots, r.seconds) for r in payload.rows),
            )
        elif isinstance(payload, list):
            text = _render_csv(("theta", "S"), payload)
        else:
            raise ValueError(f"cannot render {type(payload).__name__} as csv")
    else:
        raise ValueError(f"unknown format {format!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QSIM_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"QSIM_SEED is not an integer: {env!r}") from None


def _cmd_run(args) -> int:
    text = Path(args.circuit).read_text()
    circuit = parse_circuit(text)
    result = dispatch_run(circuit, args.shots, _resolve_seed(args), args.backend)
    write_report(result, "json", args.out)
    return 0


def _cmd_bench(args) -> int:
    if args.min_n > args.max_n:
        raise ValueError("--min-n must not exceed --max-n")
    if args.backend == "sv":
        ns = list(range(args.min_n, args.max_n + 1))
    else:
        ns, n = [], args.min_n
        while n <= args.max_n:
            ns.append(n)
            n *= 2
    report = bench_scaling(
        args.backend, ns, args.depth, args.shots, _resolve_seed(args), args.depth_scale
    )
    write_report(report, "csv", args.out)
    if report.growth is not None:
        print(f"growth descriptor ({args.backend}): {report.growth:.3f}", file=sys.stderr)
    return 0


def _cmd_bell_chsh(args) -> int:
    _resolve_seed(args)  # accepted for interface uniformity; sweep is exact
    curve = [(theta, s) for theta, s in chsh_sweep(args.steps)]
    write_report(curve, "csv", args.out)
    return 0


def _parse_topology(text: str, parties: int) -> CommTopology:
    """One-indexed 'sender>receiver' pairs, comma separated."""
    messages = []
    if text:
        for item in text.split(","):
            parts = item.split(">")
            if len(parts) != 2:
                raise ValueError(f"bad topology entry {item!r}; expected like 2>1")
            try:
                snd, rcv = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"bad topology entry {item!r}; parties are integers") from None
            if not (1 <= snd <= parties and 1 <= rcv <= parties):
                raise ValueError(f"topology entry {item!r} references a missing party")
            messages.append((snd - 1, rcv - 1))
    return CommTopology(parties, tuple(messages))


def _cmd_lhv_find(args) -> int:
    make_state, parties = _STATES[args.state]
    topology = _parse_topology(args.topology, parties)
    if topology.budget != args.bits:
        raise ValueError(
            f"--bits {args.bits} but topology carries {topology.budget} message(s)"
        )
    table = quantum_table(make_state(), (PAULI_ALPHABET,) * parties)
    result = find_local_model(table, topology)
    if isinstance(result, Infeasible):
        write_report(
            {
                "infeasible": True,
                "bound": result.bound,
                "violation": result.violation,
                "coefficients": [float(c) for c in result.coefficients],
            },
            "json",
            args.out,
        )
    else:
        write_report(result, "json", args.out)
    return 0


def _cmd_lhv_simulate(args) -> int:
    doc = json.loads(Path(args.model).read_text())
    model = model_from_json(doc)
    report = simulate_model(model, args.shots, _resolve_seed(args))
    profiles = {}
    for profile in report.empirical.profiles():
        label = "|".join(_axis_label(a) for a in profile)
        dist = report.empirical._dist(profile)
        profiles[label] = {
            "correlator": correlator(report.empirical, profile),
            "dist": {
                "".join(
                    "+" if o == 1 else "-"
                    for o in index_outcomes(i, report.empirical.parties)
                ): float(p)
                for i, p in enumerate(dist)
                if p > 0
            },
        }
    write_report(
        {
            "bits_used_per_shot": report.bits_used_per_shot,
            "shots": args.shots,
            "seed": _resolve_seed(args),
            "profiles": profiles,
        },
        "json",
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsim", description="Multi-backend quantum circuit simulator."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a circuit file")
    p_run.add_argument("circuit", help="path to a .qc circuit file")
    p_run.add_argument("--backend", choices=("sv", "stab"), default=None,
                       help="force a backend (default: tableau when possible)")
    p_run.add_argument("--shots", type=int, default=1024)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_run.set_defaults(handler=_cmd_run)

    p_bench = sub.add_parser("bench", help="time random Clifford circuits")
    p_bench.add_argument("--backend", choices=("sv", "stab"), required=True)
    p_bench.add_argument("--min-n", type=int, required=True)
    p_bench.add_argument("--max-n", type=int, required=True)
    p_bench.add_argument("--depth", type=int, required=True)
    p_bench.add_argument("--depth-scale", choices=("fixed", "linear"), default="fixed")
    p_bench.add_argument("--shots", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(handler=_cmd_bench)

    p_bell = sub.add_parser("bell", help="Bell-inequality experiments")
    bell_sub = p_bell.add_subparsers(dest="bell_command", required=True)
    p_chsh = bell_sub.add_parser("chsh", help="CHSH value along a basis rotation")
    p_chsh.add_argument("--steps", type=int, default=16)
    p_chsh.add_argument("--seed", type=int, default=None)
    p_chsh.add_argument("--out", default=None)
    p_chsh.set_defaults(handler=_cmd_bell_chsh)

    p_lhv = sub.add_parser("lhv", help="local-model search and execution")
    lhv_sub = p_lhv.add_subparsers(dest="lhv_command", required=True)
    p_find = lhv_sub.add_parser("find", help="LP search for a local model")
    p_find.add_argument("--state", choices=tuple(_STATES), required=True)
    p_find.add_argument("--bits", type=int, default=0)
    p_find.add_argument("--topology", default="",
                        help="comma-separated 1-indexed messages, e.g. 2>1")
    p_find.add_argument("--out", default=None)
    p_find.set_defaults(handler=_cmd_lhv_find)
    p_sim = lhv_sub.add_parser("simulate", help="sample a model file")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--shots", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(handler=_cmd_lhv_simulate)

    return parser


def cli_dispatch(argv) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors this way
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except QsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
