"""Tests of the benchmark: every workload at a reduced size, and the checker.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest

import bench
import checks
import gssynth.driver
import gssynth.encoding
from gssynth.driver import Limits, Verdict, synthesize
from gssynth.encoding import SynthesisInstance, encode_bmc
from gssynth.generators import erdos_renyi
from gssynth.graphs import LC, Graph, Operation, pair_count, star_graph
from gssynth.oracle import reachable_bfs
from gssynth.solvers import resolve_backend
from gssynth.witness import Witness
from tracing import LayerTrace

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

K4 = Graph(4, (1 << pair_count(4)) - 1)
STAR4 = star_graph(4, 0, (1, 2, 3))
# GHZ-4 from this source is unreachable, settled by UNSAT at the threshold
STUCK = erdos_renyi(4, 0.8, 0)


@pytest.mark.parametrize("traced", (False, True))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_runs_at_reduced_size(workload, traced):
    result = bench.run_workload(workload, 3, 0.0, traced, bench.REDUCED)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    listed = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed
    }
    assert gssynth.driver.encode_bmc is gssynth.encoding.encode_bmc


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def _jobs(workload, seed):
    return bench.build_jobs(workload, seed, LayerTrace(), bench.REDUCED)


def test_same_seed_same_inputs():
    for workload in bench.WORKLOADS:
        assert _jobs(workload, 5) == _jobs(workload, 5)
    assert [job.inst for job in _jobs("encode-paper", 5)] != [
        job.inst for job in _jobs("encode-paper", 6)
    ]


def _settled(source, target):
    inst = SynthesisInstance(source, target)
    return inst, synthesize(inst, resolve_backend("builtin"), Limits()), reachable_bfs(inst)


def test_checker_accepts_right_outputs():
    inst, outcome, oracle = _settled(K4, STAR4)
    assert checks.sweep_error(inst, outcome, oracle, None) is None
    inst, outcome, oracle = _settled(STUCK, STAR4)
    assert outcome.verdict is Verdict.UNREACHABLE and len(outcome.probes) == 1
    assert checks.sweep_error(inst, outcome, oracle, None) is None


def test_checker_rejects_a_flipped_verdict():
    inst, outcome, oracle = _settled(K4, STAR4)
    flipped = dataclasses.replace(outcome, verdict=Verdict.UNREACHABLE, witness=None)
    assert checks.sweep_error(inst, flipped, oracle, None) is not None
    inst, outcome, oracle = _settled(STUCK, STAR4)
    flipped = dataclasses.replace(outcome, verdict=Verdict.UNKNOWN)
    assert checks.sweep_error(inst, flipped, oracle, None) is not None
    # with designated pairs an unreachable instance must stay unknown
    assert checks.sweep_error(inst, outcome, oracle, 8) is not None


def test_checker_rejects_a_witness_that_does_not_replay():
    inst, outcome, oracle = _settled(K4, STAR4)
    assert outcome.witness.operations == (Operation(LC, 0),)
    wrong = Witness((Operation(LC, 1),), outcome.witness.states)
    error = checks.sweep_error(inst, dataclasses.replace(outcome, witness=wrong), oracle, None)
    assert error is not None and "step 0" in error


def test_checker_rejects_a_witness_one_operation_too_long():
    inst, outcome, oracle = _settled(K4, STAR4)
    # LC at a leaf of the star changes nothing, so the longer witness replays
    longer = Witness(
        outcome.witness.operations + (Operation(LC, 1),),
        outcome.witness.states + (STAR4,),
    )
    assert checks.replay_error(inst, longer) is None
    error = checks.sweep_error(inst, dataclasses.replace(outcome, witness=longer), oracle, None)
    assert error is not None and "shortest" in error


def _encoded_job():
    job = _jobs("encode-paper", 1)[0]
    formula, _ = encode_bmc(job.inst, job.num_states)
    return job, formula


def test_checker_accepts_an_emitted_formula():
    job, formula = _encoded_job()
    error = checks.formula_error(job.inst, job.operations, job.states, job.num_states, formula)
    assert error is None
    assert checks.dimacs_error(formula, gssynth.cnf.write_dimacs(formula)) is None


def test_checker_rejects_a_formula_with_one_literal_negated():
    job, formula = _encoded_job()
    true = set(checks.known_literals(job.inst.n, job.num_states, job.states, job.operations))
    # negate the one true literal of a transition clause
    index, position = next(
        (i, [lit in true for lit in clause].index(True))
        for i, clause in enumerate(formula.clauses)
        if len(clause) > 1 and sum(lit in true for lit in clause) == 1
    )
    formula.clauses[index][position] = -formula.clauses[index][position]
    error = checks.formula_error(job.inst, job.operations, job.states, job.num_states, formula)
    assert error == f"clause {index} is falsified by the known operation sequence"


def test_checker_rejects_a_wrong_dimacs_header():
    job, formula = _encoded_job()
    text = gssynth.cnf.write_dimacs(formula)
    header, _, body = text.partition("\n")
    assert checks.dimacs_error(formula, header + " \n" + body) is not None
    assert checks.dimacs_error(formula, text + "1 0\n") is not None
