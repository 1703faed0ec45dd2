"""Command line interface.

Subcommands:

* gen     write an instance file (random, network-based, or the demo)
* encode  emit the DIMACS reachability formula plus a layout sidecar
* synth   decide reachability and print a verified witness
* verify  replay a witness file against an instance
* oracle  breadth-first reference search (independent of the SAT pipeline)
* bench   run a family of instances and print a result table

Exit codes for synth/oracle: 0 reachable, 1 unreachable, 2 unknown.  verify
exits 0 when the witness checks out and 1 when it does not.  Bad inputs, a
malformed command line among them, exit with the usage code 64; a crash exits
70 after its traceback, and output into a pipe whose reader has gone with 141.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import traceback
from multiprocessing import Pool
from typing import (
    Callable, Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple, TypeVar, Union,
)

from .driver import Limits, SynthesisOutcome, Verdict, synthesize
from .encoding import encode_bmc, layout_to_text
from .generators import (
    builtin_network_14,
    erdos_renyi,
    ghz_target,
    network_graph,
    random_D,
    read_instance,
    secret_sharing_demo,
    write_instance,
)
from .cnf import dimacs_slices
from .graphs import Operation, SynthesisInstance
from .oracle import StateCapExceeded, DEFAULT_STATE_CAP, reachable_bfs
from .solvers import SOLVER_ENV_VAR, SolverBackend, SolverNotFoundError, resolve_backend
from .witness import ReplayReport, operations_from_text, replay, replay_verify, witness_to_text

T = TypeVar("T")

EXIT_REACHABLE = 0
EXIT_UNREACHABLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70  # an internal fault, never to be read as a verdict
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that closed early

_VERDICT_EXIT = {
    Verdict.REACHABLE: EXIT_REACHABLE,
    Verdict.UNREACHABLE: EXIT_UNREACHABLE,
    Verdict.UNKNOWN: EXIT_UNKNOWN,
}


def _read_file(path: str, what: str, parse: Callable[[str], T]) -> T:
    """Parse a file; one that cannot be read or parsed is a usage error."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise SystemExit(f"gssynth: cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise SystemExit(f"gssynth: bad {what} file {path}: {exc}") from exc


def _read_instance_file(path: str) -> SynthesisInstance:
    return _read_file(path, "instance", read_instance)[0]


def _write_output(text: Union[str, Iterable[str]], path: Optional[str]) -> None:
    """Write a string, or an iterable of strings one after another."""
    chunks = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise SystemExit(f"gssynth: cannot write {path}: {exc.strerror}") from exc


def _backend(spec: Optional[str]) -> SolverBackend:
    try:
        return resolve_backend(spec)
    except (ValueError, SolverNotFoundError) as exc:
        raise SystemExit(f"gssynth: {exc}") from exc


def _limits(args: argparse.Namespace) -> Limits:
    try:
        return Limits(
            solve_seconds=args.solve_timeout,
            total_seconds=args.budget,
            max_operations=args.max_ops,
        )
    except ValueError as exc:
        raise SystemExit(f"gssynth: {exc}") from exc


# --- gen -------------------------------------------------------------------------


def _build_instance(
    family: str, n: int, p: float, seed: int, d_size: int, parties: Optional[Sequence[int]]
) -> Tuple[SynthesisInstance, Dict[str, str]]:
    """The instance of a family; a value out of range is a usage error."""
    if family == "demo":
        return secret_sharing_demo(), {"family": "demo"}
    try:
        if family == "er":
            source = erdos_renyi(n, p, seed)
            chosen = tuple(parties) if parties else tuple(range(min(4, n)))
            meta = {"family": "er", "n": str(n), "p": str(p), "seed": str(seed)}
        else:
            topo = builtin_network_14()
            n = topo.n
            source = network_graph(topo, p, seed)
            chosen = tuple(parties) if parties else topo.end_nodes
            meta = {"family": "network", "p": str(p), "seed": str(seed)}
        if d_size:
            meta["d_size"] = str(d_size)
        designated = random_D(n, d_size, seed + 1) if d_size else ()
        return SynthesisInstance(source, ghz_target(n, chosen), designated), meta
    except ValueError as exc:
        raise SystemExit(f"gssynth: {exc}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "demo" and (
        args.n is not None or args.p is not None or args.seed is not None
        or args.d_size or args.parties
    ):
        raise SystemExit(
            "gssynth: the demo family takes no --n, --p, --seed, --d-size or --parties"
        )
    if args.family == "network" and args.n is not None:
        raise SystemExit("gssynth: the network family takes no --n")
    n = 10 if args.n is None else args.n
    p = 0.8 if args.p is None else args.p
    seed = 0 if args.seed is None else args.seed
    inst, meta = _build_instance(args.family, n, p, seed, args.d_size, args.parties)
    _write_output(write_instance(inst, meta), args.out)
    return 0


# --- encode ----------------------------------------------------------------------


def cmd_encode(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    formula, layout = encode_bmc(inst, args.states)
    # slice by slice, so the whole text is never held in memory
    _write_output(dimacs_slices(formula), args.out_prefix + ".cnf")
    _write_output(layout_to_text(layout), args.out_prefix + ".layout")
    print(f"wrote {args.out_prefix}.cnf ({formula.num_vars} vars, "
          f"{len(formula.clauses)} clauses) and {args.out_prefix}.layout")
    return 0


# --- synth -----------------------------------------------------------------------


def _print_operations(inst: SynthesisInstance, operations: Sequence[Operation]) -> None:
    print(f"operations {len(operations)}")
    for line in witness_to_text(operations, inst.designated).splitlines():
        print(f"op {line}")


def _print_outcome(inst: SynthesisInstance, outcome: SynthesisOutcome) -> None:
    print("states  vars  clauses  status   seconds  conflicts  decisions")
    for probe in outcome.probes:
        print(
            f"{probe.num_states:<7} {probe.num_vars:<5} {probe.num_clauses:<8} "
            f"{probe.status.value:<8} {probe.seconds:<8.3f} {probe.conflicts:<10} {probe.decisions}"
        )
    print(f"verdict {outcome.verdict.value}")
    if outcome.reason:
        print(f"reason {outcome.reason}")
    print(f"threshold {outcome.threshold.max_transitions}"
          f" (sound {str(outcome.threshold.sound).lower()})")
    print(f"solver_seconds {outcome.solver_seconds:.3f}")
    if outcome.witness is not None:
        _print_operations(inst, outcome.witness.operations)


def cmd_synth(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    outcome = synthesize(inst, _backend(args.solver), _limits(args))
    _print_outcome(inst, outcome)
    if args.witness_out and outcome.witness is not None:
        _write_output(
            witness_to_text(outcome.witness.operations, inst.designated), args.witness_out
        )
    return _VERDICT_EXIT[outcome.verdict]


# --- verify ----------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    operations = _read_file(
        args.witness, "witness", lambda text: operations_from_text(text, inst.designated)
    )
    try:
        report = replay_verify(inst, replay(inst, operations))
    except ValueError as exc:  # a step that does not apply
        report = ReplayReport(False, str(exc))
    if not report.ok:
        print(f"witness invalid: {report.message}")
        return 1
    print(f"witness ok ({len(operations)} operations)")
    return 0


# --- oracle ----------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    try:
        result = reachable_bfs(inst, state_cap=args.state_cap)
    except StateCapExceeded as exc:
        print(f"verdict unknown\nreason {exc}")
        return EXIT_UNKNOWN
    if not result.reachable:
        print(f"verdict unreachable\nexplored {result.explored}")
        return EXIT_UNREACHABLE
    print("verdict reachable")
    _print_operations(inst, result.shortest)
    return EXIT_REACHABLE


# --- bench -----------------------------------------------------------------------


def _bench_one(task: Tuple) -> List[str]:
    row, inst, backend, limits, timing = task
    outcome = synthesize(inst, backend, limits)
    ops = "" if outcome.witness is None else str(len(outcome.witness.operations))
    row = [*row, outcome.verdict.value, ops, str(len(outcome.probes))]
    if timing:
        row.append(f"{outcome.solver_seconds:.3f}")
    return row


def cmd_bench(args: argparse.Namespace) -> int:
    if args.family == "network" and args.sizes is not None:
        raise SystemExit("gssynth: the network family takes no --sizes")
    sizes = (args.sizes or [10]) if args.family == "er" else [builtin_network_14().n]
    backend = _backend(args.solver)
    limits = _limits(args)
    timing = not args.no_timing
    # build every instance before the sweep, so a bad parameter fails at once
    tasks = []
    for n in sizes:
        for p in args.p:
            for seed in range(args.seeds):
                inst, _ = _build_instance(args.family, n, p, seed, args.d_size, None)
                row = [args.family, str(inst.n), str(p), str(seed), str(args.d_size)]
                tasks.append((row, inst, backend, limits, timing))
    jobs = min(args.jobs, len(tasks))  # no idle workers
    if jobs > 1:
        with Pool(jobs) as pool:
            rows = pool.map(_bench_one, tasks)
    else:
        rows = [_bench_one(task) for task in tasks]
    header = ["family", "n", "p", "seed", "d_size", "verdict", "operations", "probes"]
    if timing:
        header.append("solver_seconds")
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    _write_output(buffer.getvalue(), args.out)
    return 0


# --- parser ----------------------------------------------------------------------


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


_count.__name__ = "count"  # argparse names a converter in its messages


def _list_of(convert: type) -> Callable[[str], list]:
    def parse(text: str) -> list:
        values = [convert(tok) for tok in text.replace(",", " ").split()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values
    parse.__name__ = f"{convert.__name__} list"  # "invalid int list value: 'x'"
    return parse


class _Parser(argparse.ArgumentParser):
    """Every malformed command line takes the usage path of `main`: exit 64."""

    def error(self, message: str) -> NoReturn:
        raise SystemExit(f"gssynth: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gssynth",
        description="Synthesize transformations between graph states with SAT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", choices=("er", "network", "demo"), required=True)
    gen.add_argument("--n", type=int, help="vertex count (er family; default 10)")
    gen.add_argument("--p", type=float,
                     help="edge/link probability (er and network; default 0.8)")
    gen.add_argument("--seed", type=int, help="er and network (default 0)")
    gen.add_argument("--d-size", type=int, default=0,
                     help="number of designated pairs (drawn with seed+1)")
    gen.add_argument("--parties", type=_list_of(int),
                     help="comma separated party vertices for the target "
                          "(default: first min(4, n) vertices, or the end nodes "
                          "for the network family)")
    gen.add_argument("--out", help="output file (default stdout)")
    gen.set_defaults(func=cmd_gen)

    enc = sub.add_parser("encode", help="emit DIMACS and a layout sidecar")
    enc.add_argument("instance")
    enc.add_argument("--states", type=_count, required=True,
                     help="states in the unrolling (operations + 1)")
    enc.add_argument("--out-prefix", required=True)
    enc.set_defaults(func=cmd_encode)

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--solver",
                        help=f"solver command, or 'builtin' (default: ${SOLVER_ENV_VAR}, "
                             "then a known solver on PATH, then builtin)")
    search.add_argument("--solve-timeout", type=float, help="seconds per solver call")
    search.add_argument("--budget", type=float, help="seconds for the whole search")
    search.add_argument("--max-ops", type=int, help="override the depth cap")

    syn = sub.add_parser("synth", parents=[search], help="decide reachability and print a witness")
    syn.add_argument("instance")
    syn.add_argument("--witness-out", help="write the witness to this file")
    syn.set_defaults(func=cmd_synth)

    ver = sub.add_parser("verify", help="replay a witness file")
    ver.add_argument("instance")
    ver.add_argument("witness")
    ver.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="breadth-first reference search")
    orc.add_argument("instance")
    orc.add_argument("--state-cap", type=_count, default=DEFAULT_STATE_CAP,
                     help="store at most this many states (default 2^22)")
    orc.set_defaults(func=cmd_oracle)

    ben = sub.add_parser("bench", parents=[search],
                         help="run an instance family and tabulate results")
    ben.add_argument("--family", choices=("er", "network"), required=True)
    ben.add_argument("--sizes", type=_list_of(int),
                     help="comma separated n values (er; default 10)")
    ben.add_argument("--p", type=_list_of(float), default="0.8",
                     help="comma separated probabilities")
    ben.add_argument("--seeds", type=_count, default=3, help="seeds 0..k-1")
    ben.add_argument("--d-size", type=int, default=0)
    ben.add_argument("--jobs", type=_count, default=1)
    ben.add_argument("--no-timing", action="store_true",
                     help="omit the seconds column for byte-reproducible output")
    ben.add_argument("--out", help="output file (default stdout)")
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so the exit-time flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        raise
    except Exception:
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
