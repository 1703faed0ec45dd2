"""CNF containers, DIMACS serialization, and solver output parsing."""

from __future__ import annotations

import itertools

import pytest

from gssynth.cnf import (
    CnfFormula,
    SolveStatus,
    check_assignment,
    clause_satisfied,
    parse_model,
    write_dimacs,
)


def test_add_clause_tracks_vars_and_clauses():
    f = CnfFormula(2)
    f.add_clause([1, -2])
    assert f.num_vars == 2
    assert f.clauses == [[1, -2]]


def test_add_clause_rejects_zero_and_out_of_range_literals():
    f = CnfFormula(2)
    with pytest.raises(ValueError):
        f.add_clause([1, 0])
    with pytest.raises(ValueError):
        f.add_clause([5])


def test_empty_clause_is_unsatisfiable():
    f = CnfFormula(2)
    f.add_clause([])
    for bits in itertools.product((False, True), repeat=2):
        assignment = {1: bits[0], 2: bits[1]}
        assert not check_assignment(f, assignment)


# --- DIMACS -------------------------------------------------------------------


def test_write_dimacs_exact_bytes():
    f = CnfFormula(2)
    f.add_clauses([[1, -2], [2]])
    assert write_dimacs(f) == "p cnf 2 2\n1 -2 0\n2 0\n"
    assert write_dimacs(CnfFormula(0)) == "p cnf 0 0\n"
    g = CnfFormula(3)
    g.add_clause([-3])
    assert write_dimacs(g) == "p cnf 3 1\n-3 0\n"


# --- solver output parsing -------------------------------------------------------


def test_parse_model_sat():
    status, model = parse_model("s SATISFIABLE\nv 1 -2 0\n", 2)
    assert status is SolveStatus.SAT
    assert model == {1: True, 2: False}


def test_parse_model_unsat_and_unknown():
    assert parse_model("s UNSATISFIABLE\n", 3) == (SolveStatus.UNSAT, None)
    assert parse_model("", 3) == (SolveStatus.UNKNOWN, None)
    assert parse_model("c chatter only\n", 3) == (SolveStatus.UNKNOWN, None)


def test_parse_model_values_may_span_lines_and_omit_vars():
    out = "s SATISFIABLE\nv 1\nv -3 0\n"
    status, model = parse_model(out, 4)
    assert status is SolveStatus.SAT
    # unmentioned variables default to false so the assignment is total
    assert model == {1: True, 2: False, 3: False, 4: False}


def test_parse_model_strips_ansi_colors_and_status_decorations():
    colored = "\x1b[1;32ms UNSATISFIABLE: problem.cnf\x1b[0m\n"
    assert parse_model(colored, 2) == (SolveStatus.UNSAT, None)
    colored_sat = "\x1b[32ms SATISFIABLE\x1b[0m\nv -1 2 0\n"
    status, model = parse_model(colored_sat, 2)
    assert status is SolveStatus.SAT
    assert model == {1: False, 2: True}


def test_parse_model_ignores_literals_beyond_declared_range():
    status, model = parse_model("s SATISFIABLE\nv 1 7 0\n", 2)
    assert status is SolveStatus.SAT
    assert model == {1: True, 2: False}


# --- assignment checking ----------------------------------------------------------


def test_clause_satisfied():
    assert clause_satisfied([1, -2], {1: False, 2: False})
    assert not clause_satisfied([1, 2], {1: False, 2: False})
    assert not clause_satisfied([], {1: True})


def test_check_assignment_over_all_assignments():
    f = CnfFormula(3)
    f.add_clauses([[1, 2], [-1, 3], [-2, -3]])
    satisfying = 0
    for bits in itertools.product((False, True), repeat=3):
        assignment = {v: bits[v - 1] for v in (1, 2, 3)}
        expected = (
            (assignment[1] or assignment[2])
            and (not assignment[1] or assignment[3])
            and (not assignment[2] or not assignment[3])
        )
        assert check_assignment(f, assignment) == expected
        satisfying += expected
    assert satisfying == 2
