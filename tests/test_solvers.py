"""Solver backends: the in-process CDCL search and the external harness."""

from __future__ import annotations

import itertools
import random

import pytest

from gssynth.cnf import (
    CnfFormula,
    Query,
    QueryBase,
    SolveStatus,
    falsified_clause,
    write_dimacs,
)
from gssynth.driver import Verdict, synthesize
from gssynth.encoding import SynthesisInstance
from gssynth.graphs import Graph, star_graph
from gssynth.solvers import (
    ExternalSolver,
    InProcessSolver,
    SolverNotFoundError,
    resolve_backend,
)


def brute_force_satisfiable(formula: CnfFormula, assumptions=()) -> bool:
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        assignment = {v: bits[v - 1] for v in range(1, formula.num_vars + 1)}
        if satisfies(assignment, assumptions) and falsified_clause(formula, assignment) is None:
            return True
    return False


def satisfies(assignment, assumptions) -> bool:
    return all(assignment[abs(lit)] == (lit > 0) for lit in assumptions)


def random_formula(rng: random.Random) -> CnfFormula:
    nv = rng.randint(1, 6)
    f = CnfFormula(nv)
    for _ in range(rng.randint(1, 14)):
        width = rng.randint(1, 3)
        f.add_clause(
            rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), min(width, nv))
        )
    return f


# --- in-process solver -------------------------------------------------------


def test_builtin_agrees_with_truth_tables():
    rng = random.Random(0)
    solver = InProcessSolver()
    for _ in range(300):
        f = random_formula(rng)
        result = solver.solve(f)
        expected = brute_force_satisfiable(f)
        assert result.status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)
        if result.status is SolveStatus.SAT:
            assert result.assignment is not None
            assert falsified_clause(f, result.assignment) is None


def test_builtin_edge_cases():
    solver = InProcessSolver()
    empty = CnfFormula(0)
    assert solver.solve(empty).status is SolveStatus.SAT

    contradiction = CnfFormula(1)
    contradiction.add_clauses([[1], [-1]])
    assert solver.solve(contradiction).status is SolveStatus.UNSAT

    empty_clause = CnfFormula(2)
    empty_clause.add_clause([])
    assert solver.solve(empty_clause).status is SolveStatus.UNSAT

    tautology = CnfFormula(1)
    tautology.add_clause([1, -1])
    assert solver.solve(tautology).status is SolveStatus.SAT

    # the highest variable sits at the boundary between the positive and the
    # negative literal indices
    for nv in (1, 2, 3):
        positive = CnfFormula(nv)
        positive.add_clause([nv])
        result = solver.solve(positive)
        assert result.status is SolveStatus.SAT and result.assignment[nv] is True

        negative = CnfFormula(nv)
        negative.add_clause([-nv])
        result = solver.solve(negative)
        assert result.status is SolveStatus.SAT and result.assignment[nv] is False

        both = CnfFormula(nv)
        both.add_clauses([[nv], [-nv]])
        assert solver.solve(both).status is SolveStatus.UNSAT

        unused = CnfFormula(nv + 1)  # variable nv + 1 is in no clause
        unused.add_clause([-nv, 1])
        result = solver.solve(unused)
        assert result.status is SolveStatus.SAT
        assert sorted(result.assignment) == list(range(1, nv + 2))


def test_builtin_is_deterministic():
    rng = random.Random(3)
    solver = InProcessSolver()
    for _ in range(40):
        f = random_formula(rng)
        first = solver.solve(f)
        second = solver.solve(f)
        assert first.status is second.status
        assert first.assignment == second.assignment


def test_builtin_answers_a_sequence_of_queries_under_assumptions():
    rng = random.Random(7)
    solver = InProcessSolver()
    answers = set()
    for _ in range(60):
        nv = rng.randint(1, 10)
        f = CnfFormula(nv)
        for _ in range(rng.randint(1, 4 * nv)):
            width = rng.randint(1, 3)
            f.add_clause(
                rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), min(width, nv))
            )
        base = QueryBase(f)  # one search answers every query below
        for _ in range(12):
            assumptions = tuple(
                rng.choice((v, -v)) for v in rng.choices(range(1, nv + 1), k=rng.randint(0, 4))
            )
            timeout = 0.0 if rng.random() < 0.1 else None
            result = solver.solve(Query(base, assumptions), timeout)
            if result.status is SolveStatus.UNKNOWN:
                assert timeout == 0.0
                continue
            expected = brute_force_satisfiable(f, assumptions)
            assert result.status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)
            answers.add((bool(assumptions), result.status))
            if result.status is SolveStatus.SAT:
                assert falsified_clause(f, result.assignment) is None
                assert satisfies(result.assignment, assumptions)
    # both answers, with and without assumptions, were exercised
    assert len(answers) == 4


def test_a_failed_assumption_binds_only_its_query():
    solver = InProcessSolver()
    f = CnfFormula(3)
    f.add_clauses([[-1], [2, 3], [-2, 3]])  # 1 false at level 0, 3 forced true
    base = QueryBase(f)
    for assumptions in ((1,), (-3,), (2, -2), (2, 3, -3)):
        assert solver.solve(Query(base, assumptions)).status is SolveStatus.UNSAT
        result = solver.solve(Query(base, ()))
        assert result.status is SolveStatus.SAT
        assert falsified_clause(f, result.assignment) is None
    result = solver.solve(Query(base, (-2,)))
    assert result.status is SolveStatus.SAT and result.assignment[2] is False


def test_a_formula_unsat_at_level_0_stays_unsat():
    # three pigeons, two holes: UNSAT, but only after search
    f = CnfFormula(6)
    hole = {(p, h): 2 * p + h + 1 for p in range(3) for h in range(2)}
    f.add_clauses([[hole[p, 0], hole[p, 1]] for p in range(3)])
    f.add_clauses(
        [-hole[p, h], -hole[q, h]] for h in range(2) for p in range(3) for q in range(p + 1, 3)
    )
    solver = InProcessSolver()
    base = QueryBase(f)
    proof = solver.solve(Query(base, ()))
    assert proof.status is SolveStatus.UNSAT and proof.conflicts > 0
    for assumptions in ((), (1,), (-1, -3)):
        again = solver.solve(Query(base, assumptions))
        assert again.status is SolveStatus.UNSAT
        assert (again.conflicts, again.decisions) == (0, 0)  # answered at once


def test_builtin_zero_timeout_reports_unknown():
    f = CnfFormula(2)
    f.add_clause([1, 2])  # needs a decision, so the deadline check is reached
    result = InProcessSolver().solve(f, timeout=0.0)
    assert result.status is SolveStatus.UNKNOWN
    assert result.detail == "timeout"


# --- backend resolution ---------------------------------------------------------


def test_resolve_builtin_spec():
    assert isinstance(resolve_backend("builtin"), InProcessSolver)


def test_resolve_env_var(monkeypatch):
    monkeypatch.setenv("GSSYNTH_SOLVER", "builtin")
    assert isinstance(resolve_backend(), InProcessSolver)


def test_resolve_rejects_empty_command():
    with pytest.raises(ValueError):
        resolve_backend("   ")


def test_resolve_explicit_spec_beats_env(monkeypatch):
    monkeypatch.setenv("GSSYNTH_SOLVER", "no-such-solver-anywhere")
    assert isinstance(resolve_backend("builtin"), InProcessSolver)


def test_resolve_rejects_missing_binary():
    with pytest.raises(SolverNotFoundError):
        resolve_backend("no-such-solver-anywhere")


def test_external_solver_requires_a_command():
    with pytest.raises(ValueError):
        ExternalSolver([])


def test_external_solver_keeps_exit_code_and_stderr_without_a_verdict(tmp_path):
    script = tmp_path / "crashing-solver"
    script.write_text("#!/bin/sh\necho 'c parsing' \necho 'bad header' >&2\necho '' >&2\nexit 3\n")
    script.chmod(0o755)
    f = CnfFormula(1)
    f.add_clause([1])
    result = ExternalSolver([str(script)]).solve(f)
    assert result.status is SolveStatus.UNKNOWN and result.assignment is None
    assert result.detail == "exit 3: bad header"
    assert (result.conflicts, result.decisions) == (0, 0)
    # the driver reports the detail as the reason the search stopped
    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    inst = SynthesisInstance(star_graph(3, 0, (1, 2)), triangle)
    outcome = synthesize(inst, ExternalSolver([str(script)]))
    assert outcome.verdict is Verdict.UNKNOWN
    assert outcome.reason == "exit 3: bad header"


def test_external_solver_writes_assumptions_as_unit_clauses(tmp_path):
    seen = tmp_path / "seen.cnf"
    script = tmp_path / "copying-solver"
    script.write_text(f"#!/bin/sh\ncp \"$1\" '{seen}'\necho 's UNSATISFIABLE'\n")
    script.chmod(0o755)
    f = CnfFormula(3)
    f.add_clauses([[1, -2], [], [3]])
    result = ExternalSolver([str(script)]).solve(Query(QueryBase(f), (-1, 2)))
    assert result.status is SolveStatus.UNSAT
    with_units = CnfFormula(3)
    with_units.add_clauses([[1, -2], [], [3], [-1], [2]])
    assert seen.read_text() == write_dimacs(with_units)
    ExternalSolver([str(script)]).solve(f)  # a bare formula has no units
    assert seen.read_text() == write_dimacs(f)


def stub_solver(tmp_path, stdout: str) -> ExternalSolver:
    """An external solver that prints `stdout` whatever it is given."""
    script = tmp_path / "stub-solver"
    script.write_text(f"#!/bin/sh\ncat <<'EOF'\n{stdout}EOF\n")
    script.chmod(0o755)
    return ExternalSolver([str(script)])


def test_external_solver_answers_unknown_for_sat_without_a_model(tmp_path):
    backend = stub_solver(tmp_path, "s SATISFIABLE\n")
    f = CnfFormula(2)
    f.add_clauses([[-1], [1, 2]])
    result = backend.solve(f)
    assert result.status is SolveStatus.UNKNOWN and result.assignment is None
    assert result.detail == "model falsifies clause 1 2 0"
    # the driver reports it as the reason, not as an encoding fault
    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    inst = SynthesisInstance(star_graph(3, 0, (1, 2)), triangle)
    outcome = synthesize(inst, backend)
    assert outcome.verdict is Verdict.UNKNOWN and outcome.witness is None
    assert outcome.reason == "model falsifies clause 1 0"


def test_external_solver_checks_a_model_against_formula_and_assumptions(tmp_path):
    f = CnfFormula(3)
    f.add_clauses([[1], [-2]])
    query = Query(QueryBase(f), (3,))
    wrong = stub_solver(tmp_path, "s SATISFIABLE\nv 1 2 3 0\n").solve(query)
    assert wrong.status is SolveStatus.UNKNOWN and wrong.assignment is None
    assert wrong.detail == "model falsifies clause -2 0"
    unassumed = stub_solver(tmp_path, "s SATISFIABLE\nv 1 -2 -3 0\n").solve(query)
    assert unassumed.status is SolveStatus.UNKNOWN
    assert unassumed.detail == "model falsifies clause 3 0"
    right = stub_solver(tmp_path, "s SATISFIABLE\nv 1 -2 3 0\n").solve(query)
    assert right.status is SolveStatus.SAT and right.detail == ""
    assert right.assignment == {1: True, 2: False, 3: True}


# --- external solver (only when one is installed) ----------------------------------


def external_or_skip() -> ExternalSolver:
    backend = resolve_backend()
    if not isinstance(backend, ExternalSolver):
        pytest.skip("no external solver on PATH")
    return backend


def test_external_agrees_with_truth_tables():
    backend = external_or_skip()
    rng = random.Random(1)
    for _ in range(25):
        f = random_formula(rng)
        result = backend.solve(f, timeout=30)
        expected = brute_force_satisfiable(f)
        assert result.status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)
        if result.status is SolveStatus.SAT:
            assert result.assignment is not None
            assert falsified_clause(f, result.assignment) is None


def test_external_and_builtin_agree_on_random_3sat():
    backend = external_or_skip()
    builtin = InProcessSolver()
    rng = random.Random(2)
    for _ in range(10):
        nv = 12
        f = CnfFormula(nv)
        for _ in range(int(4.0 * nv)):
            f.add_clause(rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), 3))
        assert backend.solve(f, timeout=30).status is builtin.solve(f).status
