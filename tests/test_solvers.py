"""Solver backends: the in-process CDCL search and the external harness."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import weakref
from types import SimpleNamespace

import pytest

import gssynth.solvers
from gssynth.cnf import (
    CnfFormula,
    Query,
    QueryBase,
    SolveStatus,
    falsified_clause,
    write_dimacs,
)
from gssynth.driver import Limits, Verdict, synthesize
from gssynth.encoding import SynthesisInstance
from gssynth.generators import erdos_renyi, ghz_target, random_D, secret_sharing_demo
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
        f.add_clauses(
            [[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), min(width, nv))]]
        )
    return f


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    """Every pigeon in a hole, no two in one: UNSAT when pigeons > holes."""
    f = CnfFormula(pigeons * holes)
    var = {(p, h): p * holes + h + 1 for p in range(pigeons) for h in range(holes)}
    f.add_clauses([var[p, h] for h in range(holes)] for p in range(pigeons))
    f.add_clauses(
        [-var[p, h], -var[q, h]]
        for h in range(holes)
        for p in range(pigeons)
        for q in range(p + 1, pigeons)
    )
    return f


def planted_3sat() -> CnfFormula:
    """120 random 3-clauses over 30 variables, all true under one hidden model."""
    f = CnfFormula(30)
    rng = random.Random(4)
    model = [rng.random() < 0.5 for _ in range(31)]
    while len(f.clauses) < 120:
        clause = [rng.choice((v, -v)) for v in rng.sample(range(1, 31), 3)]
        if any(model[abs(lit)] == (lit > 0) for lit in clause):
            f.add_clauses([clause])
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
    empty_clause.add_clauses([[]])
    assert solver.solve(empty_clause).status is SolveStatus.UNSAT

    tautology = CnfFormula(1)
    tautology.add_clauses([[1, -1]])
    assert solver.solve(tautology).status is SolveStatus.SAT

    # the highest variable sits at the boundary between the positive and the
    # negative literal indices
    for nv in (1, 2, 3):
        positive = CnfFormula(nv)
        positive.add_clauses([[nv]])
        result = solver.solve(positive)
        assert result.status is SolveStatus.SAT and result.assignment[nv] is True

        negative = CnfFormula(nv)
        negative.add_clauses([[-nv]])
        result = solver.solve(negative)
        assert result.status is SolveStatus.SAT and result.assignment[nv] is False

        both = CnfFormula(nv)
        both.add_clauses([[nv], [-nv]])
        assert solver.solve(both).status is SolveStatus.UNSAT

        unused = CnfFormula(nv + 1)  # variable nv + 1 is in no clause
        unused.add_clauses([[-nv, 1]])
        result = solver.solve(unused)
        assert result.status is SolveStatus.SAT
        assert sorted(result.assignment) == list(range(1, nv + 2))


def raw_formula(rng: random.Random) -> CnfFormula:
    """Clauses as a DIMACS file may give them: unsorted, repeats, both signs."""
    nv = rng.randint(1, 8)
    f = CnfFormula(nv)
    for _ in range(rng.randint(1, 3 * nv)):
        clause = [rng.choice((v, -v)) for v in rng.choices(range(1, nv + 1), k=rng.randint(1, 4))]
        if rng.random() < 0.3:
            clause.insert(rng.randrange(len(clause) + 1), rng.choice(clause))
        if rng.random() < 0.2:
            clause.insert(rng.randrange(len(clause) + 1), -clause[0])
        f.add_clauses([clause])
    return f


def test_builtin_agrees_with_brute_force_on_clauses_it_loads_as_given():
    solver = InProcessSolver()
    for clauses, satisfiable in (
        ([[1], [1]], True),  # a repeated unit
        ([[1, 1]], True),  # (a or a) alone
        ([[1, 1], [-1]], False),
        ([[-1], [1, 1]], False),
        ([[2, 1, 2], [-2, -2], [-1, 1, 3]], True),
    ):
        f = CnfFormula(3)
        f.add_clauses(clauses)
        result = solver.solve(f)
        assert result.status is (SolveStatus.SAT if satisfiable else SolveStatus.UNSAT)
        if satisfiable:
            assert result.assignment[1] is True
            assert falsified_clause(f, result.assignment) is None
    rng = random.Random(22)
    shapes, answers = set(), set()
    for _ in range(400):
        f = raw_formula(rng)
        for clause in f.clauses:
            variables = [abs(lit) for lit in clause]
            shapes.add("unsorted" if variables != sorted(variables) else "sorted")
            shapes.add("repeat" if len(set(clause)) < len(clause) else "distinct")
            shapes.add("both signs" if len(set(variables)) < len(set(clause)) else "one sign")
        base = QueryBase(f)  # later queries start from the clauses learned before
        for assumptions in ((), (rng.choice((1, -1)),), ()):
            result = solver.solve(Query(base, assumptions))
            expected = brute_force_satisfiable(f, assumptions)
            assert result.status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)
            answers.add(result.status)
            if result.status is SolveStatus.SAT:
                assert falsified_clause(f, result.assignment, assumptions) is None
    assert {"unsorted", "repeat", "both signs"} <= shapes
    assert answers == {SolveStatus.SAT, SolveStatus.UNSAT}


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
            f.add_clauses(
                [[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), min(width, nv))]]
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
    solver = InProcessSolver()
    base = QueryBase(pigeonhole(3, 2))
    proof = solver.solve(Query(base, ()))
    assert proof.status is SolveStatus.UNSAT and proof.conflicts > 0
    for assumptions in ((), (1,), (-1, -3)):
        again = solver.solve(Query(base, assumptions))
        assert again.status is SolveStatus.UNSAT
        assert (again.conflicts, again.decisions) == (0, 0)  # answered at once


def test_builtin_zero_timeout_reports_unknown():
    f = CnfFormula(2)
    f.add_clauses([[1, 2]])  # needs a decision, so the deadline check is reached
    result = InProcessSolver().solve(f, timeout=0.0)
    assert result.status is SolveStatus.UNKNOWN
    assert result.detail == "timeout"


def count_conflicts(monkeypatch, fail_at=None) -> list:
    """Wrap _Search._analyze to record each conflict; raise at the `fail_at`-th."""
    seen = []
    analyze = gssynth.solvers._Search._analyze

    def counting(search, conflict):
        seen.append(conflict)
        if len(seen) == fail_at:
            raise RuntimeError("fault in the search")
        return analyze(search, conflict)

    monkeypatch.setattr(gssynth.solvers._Search, "_analyze", counting)
    return seen


def test_builtin_times_out_between_conflicts(monkeypatch):
    # PHP(7, 6) takes more than 256 conflicts, so the check every 256 is reached;
    # the clock reads past the deadline only once 256 conflicts are counted
    seen = count_conflicts(monkeypatch)
    clock = SimpleNamespace(monotonic=lambda: 0.0 if len(seen) < 256 else 10.0)
    monkeypatch.setattr(gssynth.solvers, "time", clock)
    base = QueryBase(pigeonhole(7, 6))
    result = InProcessSolver().solve(Query(base, ()), timeout=1.0)
    assert result.status is SolveStatus.UNKNOWN and result.detail == "timeout"
    assert result.conflicts == len(seen) == 256
    assert base.search.trail_lim == []
    monkeypatch.undo()
    assert InProcessSolver().solve(Query(base, ())).status is SolveStatus.UNSAT


@pytest.mark.parametrize("satisfiable", (False, True))
def test_a_fault_inside_the_search_leaves_it_at_level_0(monkeypatch, satisfiable):
    f = planted_3sat() if satisfiable else pigeonhole(6, 5)
    fresh = InProcessSolver().solve(f)
    assert fresh.conflicts > 10
    count_conflicts(monkeypatch, fail_at=10)
    base = QueryBase(f)
    with pytest.raises(RuntimeError, match="fault in the search"):
        InProcessSolver().solve(Query(base, ()))
    assert base.search.trail_lim == [] and base.search.qhead == len(base.search.trail)
    monkeypatch.undo()
    again = InProcessSolver().solve(Query(base, ()))
    assert again.status is fresh.status
    if satisfiable:
        assert falsified_clause(f, again.assignment) is None


def assert_brute_force_answer(result, formula: CnfFormula, assumptions=()) -> None:
    """The answer brute force gives, with a model that satisfies the query."""
    expected = brute_force_satisfiable(formula, assumptions)
    assert result.status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)
    if expected:
        assert falsified_clause(formula, result.assignment, assumptions) is None


def scan_branch_var(search) -> int:
    """The reference decision: the first free variable of highest activity, or 0."""
    best, best_act = 0, -1.0
    for var in range(1, search.nv + 1):
        if search.value[var] == 0 and search.activity[var] > best_act:
            best, best_act = var, search.activity[var]
    return best


@pytest.mark.parametrize("decay", (gssynth.solvers.ACTIVITY_DECAY, 1e-30))
def test_every_decision_is_the_reference_scan(monkeypatch, decay):
    # a decay of 1e-30 multiplies the bump by 1e30 each conflict, so the 1e100
    # rescale of every activity fires within a few conflicts
    monkeypatch.setattr(gssynth.solvers, "ACTIVITY_DECAY", decay)
    pick = gssynth.solvers._Search._pick_branch_var
    decisions, rescales = [], []
    highest = weakref.WeakKeyDictionary()  # a search's highest activity: falls only at a rescale

    def checked(search):
        var = pick(search)
        assert var == scan_branch_var(search)
        decisions.append(var)
        top = max(search.activity)
        if top < highest.get(search, 0.0):
            rescales.append(top)
        highest[search] = top
        return var

    monkeypatch.setattr(gssynth.solvers._Search, "_pick_branch_var", checked)
    solver = InProcessSolver()
    for f, satisfiable in ((pigeonhole(6, 5), False), (planted_3sat(), True)):
        result = solver.solve(f)
        assert result.status is (SolveStatus.SAT if satisfiable else SolveStatus.UNSAT)
        if satisfiable:
            assert falsified_clause(f, result.assignment) is None
    rng = random.Random(23)
    for f in [pigeonhole(4, 3), pigeonhole(3, 3)] + [raw_formula(rng) for _ in range(100)]:
        assert_brute_force_answer(solver.solve(f), f)
    # a sweep-free instance the builtin proves unreachable at the threshold
    inst = SynthesisInstance(erdos_renyi(4, 0.3, 2), ghz_target(4, range(4)))
    outcome = synthesize(inst, solver, Limits())
    assert outcome.verdict is Verdict.UNREACHABLE
    assert [probe.status for probe in outcome.probes] == [SolveStatus.UNSAT]
    assert len(decisions) > 500 and 0 in decisions  # SAT answers end on a 0
    assert bool(rescales) == (decay < 1e-3)


def test_the_scan_table_covers_every_clause_length(monkeypatch):
    # a given clause longer than nv + 1, its repeats scanned past as false
    for clauses, assumptions in (
        ([[1, 1, -2, 1, -2, 1]], [(), (-1,), (2,), (-1, 2)]),
        ([[1, 1, -2, 1, -2, 1], [-1]], [(), (2,)]),
        ([[-2, 1, 1, 1, 1, -2], [2]], [(), (-1,)]),
    ):
        f = CnfFormula(2)
        f.add_clauses(clauses)
        base = QueryBase(f)
        for query in assumptions:
            assert_brute_force_answer(InProcessSolver().solve(Query(base, query)), f, query)
    # a learned clause longer than every given one: deciding -1..-4, then -5,
    # propagates -6, -7, -8 and 8, and the conflict learns (5 1 2 3 4); the next
    # query's assumption -5 makes the search scan that clause for a new watch.
    # (A learned clause of all nv variables needs a given clause of as many:
    # the conflict level holds two of a conflict's variables otherwise.)
    attached = []
    attach = gssynth.solvers._Search._attach

    def recording(search, clause):
        attached.append(list(clause))
        attach(search, clause)

    monkeypatch.setattr(gssynth.solvers._Search, "_attach", recording)
    f = CnfFormula(8)
    f.add_clauses([[1, 5, -6], [2, 6, -7], [3, 7, -8], [4, 5, 8]])
    base = QueryBase(f)
    for query in ((), (-5,), (-5, -4, -3), (-5, -1, -2, -3, -4)):
        assert_brute_force_answer(InProcessSolver().solve(Query(base, query)), f, query)
    assert attached[4] == [5, 4, 2, 3, 1]  # the first clause learned


@pytest.mark.parametrize("satisfiable", (False, True))
def test_every_query_leaves_each_clause_watched_by_its_first_two_literals(
    monkeypatch, satisfiable
):
    f = planted_3sat() if satisfiable else pigeonhole(6, 5)
    attached = []  # every clause the search watches, learned ones included
    attach = gssynth.solvers._Search._attach

    def recording(search, clause):
        attached.append(clause)
        attach(search, clause)

    monkeypatch.setattr(gssynth.solvers._Search, "_attach", recording)
    base = QueryBase(f)
    solver = InProcessSolver()

    def assert_watched_exactly():
        watches = base.search.watches
        for clause in attached:
            for lit in clause[:2]:
                assert sum(c is clause for c in watches[lit]) == 1
        assert sum(map(len, watches)) == 2 * len(attached)  # and in no other list

    with monkeypatch.context() as patch:  # a timeout at the first decision after 2 conflicts
        seen = count_conflicts(patch)
        clock = SimpleNamespace(monotonic=lambda: 10.0 if len(seen) >= 2 else 0.0)
        patch.setattr(gssynth.solvers, "time", clock)
        timed_out = solver.solve(Query(base, ()), timeout=1.0)
    assert timed_out.status is SolveStatus.UNKNOWN and timed_out.conflicts >= 2
    assert_watched_exactly()
    with monkeypatch.context() as patch:  # a fault raised at the next conflict but one
        count_conflicts(patch, fail_at=2)
        with pytest.raises(RuntimeError, match="fault in the search"):
            solver.solve(Query(base, ()))
    assert_watched_exactly()
    # UNSAT under an assumption: a pigeon in the first hole, or a clause all false
    assumptions = tuple(-lit for lit in f.clauses[0]) if satisfiable else (1,)
    refuted = solver.solve(Query(base, assumptions))
    assert refuted.status is SolveStatus.UNSAT
    assert_watched_exactly()
    answer = solver.solve(Query(base, ()))
    assert answer.status is (SolveStatus.SAT if satisfiable else SolveStatus.UNSAT)
    assert_watched_exactly()


def test_builtin_search_is_pinned():
    """The builtin's every step, as counted per probe, on a fixed set of runs.

    A refactor of the search must leave this digest as it is; a change that
    alters the search on purpose updates it and says why.
    """
    runs = []
    for n, p, seed, d_size in itertools.product((3, 4), (0.3, 0.5, 0.8), range(4), (0, 2)):
        designated = random_D(n, d_size, seed + 1) if d_size else ()
        target = ghz_target(n, range(min(4, n)))
        inst = SynthesisInstance(erdos_renyi(n, p, seed), target, designated)
        runs.append((inst, Limits(max_operations=8) if d_size else Limits()))
    runs.append((secret_sharing_demo(), Limits()))
    probes = [
        [[probe.num_states, probe.status.value, probe.conflicts, probe.decisions]
         for probe in outcome.probes]
        for outcome in (synthesize(inst, InProcessSolver(), limits) for inst, limits in runs)
    ]
    assert sum(map(len, probes)) == 114
    digest = hashlib.sha256(json.dumps(probes).encode()).hexdigest()
    assert digest == "7382cece0621b309603836cba3a87e82846ee44b7cb29b59a0c757dac16b3e21"


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


def test_a_known_solver_gets_its_flags_however_it_is_found(tmp_path, monkeypatch):
    stub = tmp_path / "kissat"
    stub.write_text("#!/bin/sh\necho 's UNSATISFIABLE'\n")
    stub.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.delenv("GSSYNTH_SOLVER", raising=False)
    for spec in ("kissat", str(stub), None):  # bare name, full path, PATH probe
        backend = resolve_backend(spec)
        assert isinstance(backend, ExternalSolver)
        assert backend.name == "kissat"
        assert backend.command == [str(stub), "-q"]


def test_external_solver_requires_a_command():
    with pytest.raises(ValueError):
        ExternalSolver([])


def test_external_solver_keeps_exit_code_and_stderr_without_a_verdict(tmp_path):
    script = tmp_path / "crashing-solver"
    script.write_text("#!/bin/sh\necho 'c parsing' \necho 'bad header' >&2\necho '' >&2\nexit 3\n")
    script.chmod(0o755)
    f = CnfFormula(1)
    f.add_clauses([[1]])
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


def stub_solver(tmp_path, stdout: str, stderr: str = "", code: int = 0) -> ExternalSolver:
    """An external solver that prints `stdout` and `stderr`, whatever it is given."""
    script = tmp_path / "stub-solver"
    script.write_text(
        f"#!/bin/sh\ncat <<'EOF'\n{stdout}EOF\ncat >&2 <<'EOF'\n{stderr}EOF\nexit {code}\n"
    )
    script.chmod(0o755)
    return ExternalSolver([str(script)])


def test_external_solver_keeps_exit_code_and_stderr_with_a_verdict(tmp_path):
    f = CnfFormula(2)
    f.add_clauses([[1], [-2]])
    sat = stub_solver(tmp_path, "s SATISFIABLE\nv 1 -2 0\n", "c done\nc 3 conflicts\n", 10)
    result = sat.solve(f)
    assert result.status is SolveStatus.SAT and result.assignment == {1: True, 2: False}
    assert result.detail == "exit 10: c 3 conflicts"
    result = stub_solver(tmp_path, "s UNSATISFIABLE\n", code=20).solve(f)
    assert result.status is SolveStatus.UNSAT and result.detail == "exit 20"
    # a rejected model leads with the clause it falsifies
    wrong = stub_solver(tmp_path, "s SATISFIABLE\nv 1 2 0\n", "c done\n", 10).solve(f)
    assert wrong.status is SolveStatus.UNKNOWN and wrong.assignment is None
    assert wrong.detail == "model falsifies clause -2 0; exit 10: c done"


def test_external_solver_answers_unknown_for_sat_without_a_model(tmp_path):
    backend = stub_solver(tmp_path, "s SATISFIABLE\n")
    f = CnfFormula(2)
    f.add_clauses([[-1], [1, 2]])
    result = backend.solve(f)
    assert result.status is SolveStatus.UNKNOWN and result.assignment is None
    assert result.detail == "model falsifies clause 1 2 0; exit 0"
    # the driver reports it as the reason, not as an encoding fault
    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    inst = SynthesisInstance(star_graph(3, 0, (1, 2)), triangle)
    outcome = synthesize(inst, backend)
    assert outcome.verdict is Verdict.UNKNOWN and outcome.witness is None
    assert outcome.reason == "model falsifies clause 1 0; exit 0"


def test_external_solver_checks_a_model_against_formula_and_assumptions(tmp_path):
    f = CnfFormula(3)
    f.add_clauses([[1], [-2]])
    query = Query(QueryBase(f), (3,))
    wrong = stub_solver(tmp_path, "s SATISFIABLE\nv 1 2 3 0\n").solve(query)
    assert wrong.status is SolveStatus.UNKNOWN and wrong.assignment is None
    assert wrong.detail == "model falsifies clause -2 0; exit 0"
    unassumed = stub_solver(tmp_path, "s SATISFIABLE\nv 1 -2 -3 0\n").solve(query)
    assert unassumed.status is SolveStatus.UNKNOWN
    assert unassumed.detail == "model falsifies clause 3 0; exit 0"
    right = stub_solver(tmp_path, "s SATISFIABLE\nv 1 -2 3 0\n").solve(query)
    assert right.status is SolveStatus.SAT and right.detail == "exit 0"
    assert right.assignment == {1: True, 2: False, 3: True}


def test_external_solver_answers_unknown_for_a_malformed_model_line(tmp_path):
    f = CnfFormula(2)
    f.add_clauses([[1], [-2]])
    result = stub_solver(tmp_path, "s SATISFIABLE\nv 1 -2 x 0\n").solve(f)
    assert result.status is SolveStatus.UNKNOWN and result.assignment is None
    assert result.detail == "malformed model line 'v 1 -2 x 0'; exit 0"


def test_external_solver_reads_output_that_is_not_utf8(tmp_path):
    script = tmp_path / "byte-solver"
    script.write_text("#!/bin/sh\nprintf 'c \\377\\ns UNSATISFIABLE\\n'\n")
    script.chmod(0o755)
    f = CnfFormula(1)
    f.add_clauses([[1], [-1]])
    assert ExternalSolver([str(script)]).solve(f).status is SolveStatus.UNSAT


def test_external_solver_runs_from_a_relative_path(tmp_path, monkeypatch):
    stub_solver(tmp_path, "s UNSATISFIABLE\n")
    monkeypatch.chdir(tmp_path)
    backend = ExternalSolver(["./stub-solver"])
    assert backend.command == [str(tmp_path / "stub-solver")]
    f = CnfFormula(1)
    f.add_clauses([[1], [-1]])
    assert backend.solve(f).status is SolveStatus.UNSAT


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
            f.add_clauses([[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), 3)]])
        assert backend.solve(f, timeout=30).status is builtin.solve(f).status
