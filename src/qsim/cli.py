"""The ``qsim`` command-line front end.

Subcommands: ``run`` (simulate a circuit file, auto-dispatching to the
tableau backend when the circuit allows it), ``bench`` (scaling
curves), ``bell chsh`` (the rotated-basis CHSH sweep), ``lhv find``
(LP search for a communication-assisted local model) and ``lhv
simulate`` (execute a found model shot by shot).

The package ``qsim`` does not import this module, so ``python -m
qsim.cli`` runs it without runpy's warning; the console script is
``qsim.cli:main``.

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
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .bench import BenchReport, bench_scaling, dispatch_run
from .circuit import PauliAxis
from .errors import ParseError, QsimError
from .lang import parse_circuit
from .lhv import (
    PAULI_ALPHABET,
    CommTopology,
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
from .result import Counts, RunResult
from .statevector import BlochAxis

_STATES = {
    "singlet": (singlet_state, 2),
    "ghz3": (lambda: ghz_state(3), 3),
}


_ENTRY_OPEN = np.frombuffer(b',\n    "', dtype=np.uint8)
_ENTRY_COLON = np.frombuffer(b'": ', dtype=np.uint8)
_POWERS_OF_TEN = 10 ** np.arange(18, -1, -1, dtype=np.int64)


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


_REPORT_BYTES = 1 << 18  # bytes of entries one block of a run report holds


def _counts_blocks(counts: Counts) -> Iterator[memoryview]:
    """The entries of ``counts`` as :func:`_render_json` nests them one
    level down, as ASCII bytes, a bounded block of entries at a time.

    The keys are written from the packed words without a ``str`` per key:
    each entry is one fixed-width byte row (a comma, a newline, four
    spaces and a quote, the key's bits (:meth:`Counts.bits`) as ASCII
    digits, a quote, a colon and a space, then the count's digits
    zero-padded to the widest count); one boolean mask drops the padding
    zeros, and the kept bytes are yielded as a view, the very first comma
    left out.  A block holds about ``_REPORT_BYTES`` bytes.  Every block
    is rendered into one buffer, whose fixed bytes are written once, so a
    block's bytes hold only until the next block is made.
    """
    n, m = len(counts), counts.m
    if n == 0:
        return
    width = len(str(counts.tallies.max()))
    per = min(n, max(1, _REPORT_BYTES // (m + width + 10)))
    lines = np.empty((per, m + width + 10), dtype=np.uint8)
    lines[:, :7] = _ENTRY_OPEN
    lines[:, 7 + m : 10 + m] = _ENTRY_COLON
    for start in range(0, n, per):
        tallies = counts.tallies[start : start + per]
        block = lines[: len(tallies)]
        np.add(counts.bits(start, start + per), ord("0"), out=block[:, 7 : 7 + m])
        quotients = tallies[:, None] // _POWERS_OF_TEN[-width:]
        np.add(quotients % 10, ord("0"), out=block[:, 10 + m :], casting="unsafe")
        padding = quotients[:, :-1] == 0
        if padding.any():
            keep = np.ones(block.shape, dtype=bool)
            keep[:, 10 + m : 9 + m + width] = ~padding
            flat = block[keep]
        else:
            flat = block.ravel()
        yield memoryview(flat)[1:] if start == 0 else memoryview(flat)


def _run_pieces(result: RunResult) -> Iterator[bytes | memoryview]:
    """A run report with a :class:`~qsim.result.Counts` histogram as ASCII
    pieces, byte-identical to :func:`_render_json` of its fields: the text
    before the counts' entries, the entries' blocks
    (:func:`_counts_blocks`) and the text after, in the fixed layout of
    the five sorted keys.
    """
    backend, rng_id, seed, shots = (
        json.dumps(_clean(v)) for v in (result.backend, result.rng_id, result.seed, result.shots)
    )
    yield f'{{\n  "backend": {backend},\n  "counts": {{'.encode("ascii")
    yield from _counts_blocks(result.counts)
    close = "\n  }" if len(result.counts) else "}"
    yield f'{close},\n  "rng_id": {rng_id},\n  "seed": {seed},\n  "shots": {shots}\n}}\n'.encode(
        "ascii")


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
    float format — identical inputs give identical bytes.  A run whose
    counts are a :class:`~qsim.result.Counts` is rendered from its packed
    keys and written a bounded block of entries at a time
    (:func:`_counts_blocks`), to a file as the bytes they are and to
    stdout decoded, the same bytes as :func:`_render_json` of its fields.
    """
    if format == "json" and isinstance(payload, RunResult) and isinstance(payload.counts, Counts):
        # the report is written a block of entries at a time: to a file as
        # the bytes they are, to stdout decoded
        if path is not None:
            with open(path, "wb") as f:
                for piece in _run_pieces(payload):
                    f.write(piece)
        else:
            for piece in _run_pieces(payload):
                sys.stdout.write(str(piece, "ascii"))
        return
    elif format == "json":
        if isinstance(payload, RunResult):
            payload = {
                "backend": payload.backend,
                "shots": payload.shots,
                "seed": payload.seed,
                "rng_id": payload.rng_id,
                "counts": payload.counts,
            }
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
    if args.min_n < 2:  # the tableau sizes double from --min-n
        raise ValueError("need at least two qubits")
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


def _run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("circuit", help="path to a .qc circuit file")
    p.add_argument("--backend", choices=("sv", "stab"), default=None,
                   help="force a backend (default: tableau when possible)")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(handler=_cmd_run)


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=("sv", "stab"), required=True)
    p.add_argument("--min-n", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--depth-scale", choices=("fixed", "linear"), default="fixed")
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bench)


def _chsh_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bell_chsh)


def _find_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", choices=tuple(_STATES), required=True)
    p.add_argument("--bits", type=int, default=0)
    p.add_argument("--topology", default="",
                   help="comma-separated 1-indexed messages, e.g. 2>1")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_lhv_find)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_lhv_simulate)


# The command tree: per level, the subcommand dest and its commands as
# (name, help, arguments), where arguments declares a leaf's options or
# is the next level.
_BELL = ("bell_command", (("chsh", "CHSH value along a basis rotation", _chsh_args),))
_LHV = ("lhv_command", (
    ("find", "LP search for a local model", _find_args),
    ("simulate", "sample a model file", _simulate_args),
))
_TOP = ("command", (
    ("run", "simulate a circuit file", _run_args),
    ("bench", "time random Clifford circuits", _bench_args),
    ("bell", "Bell-inequality experiments", _BELL),
    ("lhv", "local-model search and execution", _LHV),
))


def _add_level(parser: argparse.ArgumentParser, level, argv) -> None:
    """Declare ``level``'s commands on ``parser``: only the one that
    ``argv[0]`` names, or all of them when it names none.

    Once a command is picked, the only text of this level that argparse
    can print is its usage, in an "unrecognized arguments" error; the
    metavar names every command there, as the whole tree does.
    """
    dest, commands = level
    sub = parser.add_subparsers(dest=dest, required=True)
    picked = [c for c in commands if c[0] in argv[:1]]
    if picked:
        sub.metavar = "{" + ",".join(name for name, _, _ in commands) + "}"
    for name, help, arguments in picked or commands:
        p = sub.add_parser(name, help=help)
        if callable(arguments):
            arguments(p)
        else:
            _add_level(p, arguments, argv[1:] if picked else ())


def _parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the branch that ``argv`` names.

    Built per call, it declares only the commands on ``argv``'s path and,
    where the path stops naming one, every command below; for an argv it
    parses exactly as :func:`build_parser` does.
    """
    parser = argparse.ArgumentParser(
        prog="qsim", description="Multi-backend quantum circuit simulator."
    )
    _add_level(parser, _TOP, argv)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree."""
    return _parser()


def cli_dispatch(argv) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors this way
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except QsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
