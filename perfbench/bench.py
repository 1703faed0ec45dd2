"""Workloads, measurement and metrics of the gssynth benchmark.

Three workloads call the library in this process, with the solver backend
pinned to `builtin` so the figures do not depend on what is on PATH:

* `sweep-free`: GHZ-4 targets from ER(n, p) sources, n = 3 and 4, no
  designated pairs, default `Limits`, plus the secret-sharing demo.  One
  operation settles one instance.  Nearly all the time is the UNSAT proof at
  the completeness threshold.
* `sweep-designated`: the same sources with two designated pairs drawn with
  the ER seed + 1, and `max_operations=8`.  Model finding and bisection
  dominate.
* `encode-paper`: `encode_bmc` plus `write_dimacs` of the top probe, at
  threshold + 1 states, for ER(n, 0.8) with n = 10..17 and the 14-node network
  at p = 0.9.  One operation emits one formula; no solver runs.

A run repeats whole rounds of its workload until the measured time reaches
`--seconds`; every round does the same operations.  Outputs are checked
outside the timed regions, see checks.py.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import gssynth
from gssynth.cnf import write_dimacs
from gssynth.driver import Limits, completeness_threshold, synthesize
from gssynth.encoding import SynthesisInstance, encode_bmc
from gssynth.generators import (
    builtin_network_14,
    erdos_renyi,
    ghz_target,
    network_graph,
    random_D,
    secret_sharing_demo,
)
from gssynth.graphs import LC, VD, Graph, Operation, apply_operation, isolated_vertices
from gssynth.oracle import reachable_bfs
from gssynth.solvers import resolve_backend

import checks
from tracing import LayerTrace, TimedSolver, traced_driver

WORKLOADS = ("sweep-free", "sweep-designated", "encode-paper")
SWEEP_P = (0.3, 0.5, 0.8)
DESIGNATED_PAIRS = 2
DESIGNATED_MAX_OPERATIONS = 8
ENCODE_P = 0.8
NETWORK_P = 0.9
PARTIES = 4
SETUP_SAMPLES_EACH_TIME = 3  # before the first round and after every round


class MakeUp(NamedTuple):
    """Which instances the workloads hold."""

    sweep_sources: Tuple[Tuple[int, int], ...]  # (n, ER seeds 0..k-1), for every p
    encode_sizes: Tuple[int, ...]
    network: bool


# The criterion-3 grid's rows n = 3 and 4, with twenty ER seeds each so a
# round holds more than 100 instances and ten of them lie beyond the 90th
# percentile.  Row n = 5 is left out: its UNSAT proofs take 3 to 8 s each, so
# one round would outlast a run, and a single timing of each instance spreads
# too widely on a shared machine (see README.md).
FULL = MakeUp(((3, 20), (4, 20)), tuple(range(10, 18)), True)
REDUCED = MakeUp(((3, 2), (4, 2)), (6, 7), False)


@dataclass(frozen=True)
class Job:
    """One operation: an instance to settle, or a formula to emit."""

    label: str
    inst: SynthesisInstance
    operations: Tuple[Operation, ...] = ()  # known sequence (encode-paper)
    states: Tuple[Graph, ...] = ()
    num_states: int = 0


# --- set-up ----------------------------------------------------------------------


def sweep_jobs(trace: LayerTrace, designated: bool, make_up: MakeUp) -> List[Job]:
    """The sweep instances, in grid order.

    They do not depend on the seed.  Relabelling an instance's vertices moves
    the builtin's time on it by up to a factor of four, and shuffling the
    order moves the median instance time by up to 13 % against 5 % in a fixed
    order; both are wider than a bound could hold.
    """
    jobs = []
    for n, seeds in make_up.sweep_sources:
        target = trace.timed("gen", ghz_target, n, range(min(PARTIES, n)))
        for p in SWEEP_P:
            for er_seed in range(seeds):
                source = trace.timed("gen", erdos_renyi, n, p, er_seed)
                pairs = (
                    trace.timed("gen", random_D, n, DESIGNATED_PAIRS, er_seed + 1)
                    if designated
                    else ()
                )
                inst = SynthesisInstance(source, target, pairs)
                jobs.append(Job(f"er n={n} p={p} seed={er_seed}", inst))
    if not designated:
        jobs.append(Job("demo", trace.timed("gen", secret_sharing_demo)))
    return jobs


def _known_sequence_job(
    label: str, draw_source, parties: Sequence[int], rng: random.Random, trace: LayerTrace
) -> Job:
    """Source plus a random LC/VD sequence of lc-bound length; its end is the target.

    Every vertex outside the parties is deleted once, as a GHZ target over the
    parties would demand, and the LCs fall on random vertices.  Draws that
    leave a party isolated, or a source with an isolated vertex, are redrawn,
    so the threshold, and with it the formula's size, depends on n alone.
    """
    while True:
        source = trace.timed("gen", draw_source, rng.randrange(1 << 32))
        n = source.n
        lc_bound = 3 * (n - n % 2) // 2
        deleted = [v for v in range(n) if v not in parties]
        operations = [Operation(VD, v) for v in deleted]
        operations += [Operation(LC, rng.randrange(n)) for _ in range(lc_bound - len(deleted))]
        rng.shuffle(operations)
        states = [source]
        for op in operations:
            states.append(apply_operation(states[-1], op))
        inst = SynthesisInstance(source, states[-1])
        if not isolated_vertices(source) and isolated_vertices(inst.target) == set(deleted):
            break
    num_states = completeness_threshold(inst).max_transitions + 1
    return Job(label, inst, tuple(operations), tuple(states), num_states)


def encode_jobs(seed: int, trace: LayerTrace, make_up: MakeUp) -> List[Job]:
    rng = random.Random(seed)
    jobs = []
    for n in make_up.encode_sizes:
        jobs.append(
            _known_sequence_job(
                f"er n={n}", lambda s, n=n: erdos_renyi(n, ENCODE_P, s), range(PARTIES), rng, trace
            )
        )
    if make_up.network:
        topo = trace.timed("gen", builtin_network_14)
        jobs.append(
            _known_sequence_job(
                "network-14",
                lambda s: network_graph(topo, NETWORK_P, s),
                topo.end_nodes,
                rng,
                trace,
            )
        )
    return jobs


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import gssynth\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Time `import gssynth` in a fresh interpreter, as a user's process pays it."""
    src = os.path.dirname(gssynth.__path__[0])
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, src],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def build_jobs(workload: str, seed: int, trace: LayerTrace, make_up: MakeUp) -> List[Job]:
    if workload == "encode-paper":
        return encode_jobs(seed, trace, make_up)
    return sweep_jobs(trace, workload == "sweep-designated", make_up)


def time_set_up(build, samples: int) -> Tuple[List[Job], List[float], List[float]]:
    """Set up `samples` times; return the jobs, set-up seconds and generator seconds.

    Set-up is the import of gssynth in a fresh interpreter, as a user's
    process pays it, plus building the jobs.
    """
    setup_s, gen_s = [], []
    for _ in range(samples):
        trace = LayerTrace()
        imported = import_seconds()
        start = time.perf_counter()
        jobs = build(trace)
        setup_s.append(imported + time.perf_counter() - start)
        gen_s.append(trace.seconds["gen"])
    return jobs, setup_s, gen_s


# --- measurement -----------------------------------------------------------------


@dataclass
class RunRecord:
    round_seconds: List[float] = field(default_factory=list)
    operation_seconds: Dict[int, List[float]] = field(default_factory=dict)  # per job, per round
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def add_time(self, index: int, seconds: float) -> None:
        self.operation_seconds.setdefault(index, []).append(seconds)
        self.round_seconds[-1] += seconds

    def add_failure(self, job: Job) -> None:
        self.failed += 1
        print(f"perfbench: {job.label} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def sweep_round(
    jobs: List[Job], designated: bool, trace: Optional[LayerTrace]
) -> Callable[[RunRecord], None]:
    """Settle every instance once, then check the outcomes against the oracle."""
    limits = Limits(max_operations=DESIGNATED_MAX_OPERATIONS) if designated else Limits()
    cap = DESIGNATED_MAX_OPERATIONS if designated else None
    backend = resolve_backend("builtin")
    if trace is not None:
        backend = TimedSolver(backend, trace)
    oracles: Dict[int, object] = {}

    def play(record: RunRecord) -> None:
        outcomes = []
        for index, job in enumerate(jobs):
            record.attempted += 1
            layers_before = trace.layer_seconds() if trace is not None else 0.0
            start = time.perf_counter()
            try:
                outcome = synthesize(job.inst, backend, limits)
            except Exception:
                record.add_failure(job)
                outcomes.append(None)
                continue
            elapsed = time.perf_counter() - start
            if trace is not None:
                trace.add_time("driver_self", elapsed - (trace.layer_seconds() - layers_before))
            record.add_time(index, elapsed)
            outcomes.append(outcome)
        for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
            if outcome is None:
                continue
            if index not in oracles:
                oracles[index] = reachable_bfs(job.inst)
            error = checks.sweep_error(job.inst, outcome, oracles[index], cap)
            if error is not None:
                record.errors.append(f"{job.label}: {error}")

    return play


def encode_round(jobs: List[Job], trace: LayerTrace) -> Callable[[RunRecord], None]:
    """Emit every formula once, checking each before the next is built."""

    def play(record: RunRecord) -> None:
        for index, job in enumerate(jobs):
            record.attempted += 1
            start = time.perf_counter()
            try:
                formula, _ = encode_bmc(job.inst, job.num_states)
                encoded = time.perf_counter()
                text = write_dimacs(formula)
            except Exception:
                record.add_failure(job)
                continue
            end = time.perf_counter()
            trace.add_time("encode", encoded - start)
            trace.add_time("dimacs", end - encoded)
            trace.add_count("clauses", len(formula.clauses))
            trace.add_count("vars", formula.num_vars)
            trace.add_count("dimacs_bytes", len(text))
            record.add_time(index, end - start)
            error = checks.formula_error(
                job.inst, job.operations, job.states, job.num_states, formula
            ) or checks.dimacs_error(formula, text)
            if error is not None:
                record.errors.append(f"{job.label}: {error}")
            del formula, text

    return play


# --- metrics ---------------------------------------------------------------------


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[8]


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, make_up: MakeUp = FULL
) -> dict:
    """Run one workload and return the result object the command prints."""

    def build(trace):
        return build_jobs(workload, seed, trace, make_up)

    # Set-up is sampled before the first round and after every round.  The
    # speed of a shared machine drifts within seconds, and samples taken back
    # to back all land in one phase of it.
    jobs, setup_s, gen_s = time_set_up(build, SETUP_SAMPLES_EACH_TIME)
    trace = LayerTrace()
    sweep = workload != "encode-paper"
    if sweep:
        play = sweep_round(jobs, workload == "sweep-designated", trace if traced else None)
    else:
        play = encode_round(jobs, trace)
    record = RunRecord()
    with traced_driver(trace) if traced and sweep else nullcontext():
        while not record.round_seconds or sum(record.round_seconds) < seconds:
            gc.collect()
            record.round_seconds.append(0.0)
            play(record)
            _, more_setup_s, more_gen_s = time_set_up(build, SETUP_SAMPLES_EACH_TIME)
            setup_s += more_setup_s
            gen_s += more_gen_s
    rounds = len(record.round_seconds)
    # An operation's time is its fastest over the rounds.  The work is the same
    # in every round; on a shared machine the slower repeats time the other
    # processes on it (see README.md).
    times = [min(t) for t in record.operation_seconds.values()] or [0.0]
    print(
        f"perfbench: {workload} seed {seed} trace {int(traced)}: {rounds} round(s) of "
        f"{len(jobs)} operations, round seconds {record.round_seconds}, "
        f"sum of fastest {sum(times)}",
        file=sys.stderr,
    )
    for error in record.errors[:10]:
        print(f"perfbench: wrong output: {error}", file=sys.stderr)
    if traced:

        def per_round(key: str) -> float:
            return trace.seconds.get(key, 0.0) / rounds

        def count(key: str) -> int:
            return trace.counts.get(key, 0) // rounds

        metrics = {
            "solvers.unsat_s": (per_round("solve_unsat"), "s"),
            "solvers.sat_s": (per_round("solve_sat"), "s"),
            "solvers.solve_s": (per_round("solve"), "s"),
            "solvers.probe_s_max": (trace.probe_s_max, "s"),
            "driver.probes": (count("probes"), "count"),
            "driver.self_s": (per_round("driver_self"), "s"),
            "encoding.encode_s": (per_round("encode"), "s"),
            "encoding.clauses": (count("clauses"), "count"),
            "encoding.vars": (count("vars"), "count"),
            "cnf.dimacs_s": (per_round("dimacs"), "s"),
            "cnf.dimacs_bytes": (count("dimacs_bytes"), "bytes"),
            "witness.decode_s": (per_round("decode"), "s"),
            "witness.replay_s": (per_round("replay"), "s"),
            "generators.gen_s": (statistics.median(gen_s), "s"),
        }
    else:
        metrics = {
            "wall_s": (sum(times), "s"),
            "instance_s_p50": (statistics.median(times), "s"),
            "instance_s_p90": (_p90(times), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "correct": not record.errors,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
