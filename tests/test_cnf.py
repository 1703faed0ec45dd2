"""CNF containers, DIMACS serialization, and solver output parsing."""

from __future__ import annotations

import itertools
import random

import pytest

from gssynth.cnf import (
    CnfFormula,
    Query,
    QueryBase,
    SolveStatus,
    as_query,
    clause_satisfied,
    falsified_clause,
    parse_model,
    write_dimacs,
)


def test_add_clause_tracks_vars_and_clauses():
    f = CnfFormula(2)
    f.add_clause([1, -2])
    assert f.num_vars == 2
    assert [list(c) for c in f.clauses] == [[1, -2]]


def test_add_clause_rejects_zero_and_out_of_range_literals():
    f = CnfFormula(2)
    with pytest.raises(ValueError):
        f.add_clause([1, 0])
    with pytest.raises(ValueError):
        f.add_clause([5])
    with pytest.raises(ValueError):
        f.add_clause([-3])


def test_a_rejected_batch_appends_nothing():
    f = CnfFormula(2)
    with pytest.raises(ValueError, match="literal 5 "):
        f.add_clauses([[1], [5]])
    assert len(f.clauses) == 0
    with pytest.raises(ValueError, match="literal 0 "):
        f.add_clauses([[2, -1], [1, 0, 2]])
    assert len(f.clauses) == 0
    assert write_dimacs(f) == "p cnf 2 0\n"


def test_add_renumbered_copies_a_clause_range():
    f = CnfFormula(4)
    f.add_clauses([[1], [1, -2], [], [2]])
    # 1 -> 3, 2 -> -4, 3 -> 1, 4 -> -2; -v is at index 9 - v
    table = [0, 3, -4, 1, -2, 2, -1, 4, -3]
    identity = [0, 1, 2, 3, 4, -4, -3, -2, -1]
    f.add_renumbered(1, 3, [table, identity])
    assert [list(c) for c in f.clauses] == [[1], [1, -2], [], [2], [3, 4], [], [1, -2], []]
    assert write_dimacs(f) == "p cnf 4 8\n1 0\n1 -2 0\n0\n2 0\n3 4 0\n0\n1 -2 0\n0\n"
    f.add_renumbered(0, 0, [table])  # an empty range
    f.add_renumbered(0, 4, [])  # no table
    f.add_renumbered(4, 5, iter([identity]))  # read once
    assert [list(c) for c in f.clauses][8:] == [[3, 4]]


def test_a_rejected_renumbering_appends_nothing():
    f = CnfFormula(2)
    f.add_clauses([[1, -2], [2]])
    literals, starts = f.literals.tolist(), f.starts.tolist()
    bad_tables = {
        "literal 3 ": [0, 3, 2, -2, -1],  # beyond num_vars
        "literal -3 ": [0, 1, 2, -2, -3],
        "only 0, to 0": [0, 1, 0, -2, -1],  # a literal to the terminator
        "map 0": [1, 1, 2, -2, -1],  # the terminator to a literal
        "needs 5 entries": [0, 1, 2, -1],
    }
    good = [0, 2, 1, -1, -2]
    for message, table in bad_tables.items():
        with pytest.raises(ValueError, match=message):
            f.add_renumbered(0, 2, [good, table])  # a bad later table stops the first
        assert f.literals.tolist() == literals and f.starts.tolist() == starts
    for first, end in ((1, 3), (2, 1), (-1, 1)):
        with pytest.raises(ValueError, match="clause range"):
            f.add_renumbered(first, end, [good])
        assert f.literals.tolist() == literals and f.starts.tolist() == starts


def test_query_rejects_assumptions_outside_the_formula():
    base = QueryBase(CnfFormula(2))
    assert Query(base, (-2, 1)).formula is base.formula
    for bad in (0, 3, -3):
        with pytest.raises(ValueError):
            Query(base, (1, bad))


def test_a_bare_formula_is_a_query_without_assumptions():
    f = CnfFormula(1)
    query = as_query(f)
    assert query.formula is f and query.assumptions == ()
    assert as_query(query) is query
    assert as_query(f).base is not query.base  # each gets a base of its own


def test_clause_view_reads_and_writes_through():
    f = CnfFormula(3)
    f.add_clauses([[1, -2], [], [3, -1, 2]])
    f.add_clause([-3])
    clauses = f.clauses
    assert len(clauses) == 4
    assert [list(c) for c in clauses] == [[1, -2], [], [3, -1, 2], [-3]]
    assert list(clauses[-1]) == [-3] and list(clauses[-4]) == [1, -2]
    assert len(clauses[2]) == 3 and -1 in clauses[2] and 1 not in clauses[2]
    with pytest.raises(IndexError):
        clauses[4]
    with pytest.raises(IndexError):
        clauses[-5]
    clauses[2][1] = -clauses[2][1]
    assert list(f.clauses[2]) == [3, 1, 2]
    assert write_dimacs(f) == "p cnf 3 4\n1 -2 0\n0\n3 1 2 0\n-3 0\n"


def test_empty_clause_is_unsatisfiable():
    f = CnfFormula(2)
    f.add_clause([])
    for bits in itertools.product((False, True), repeat=2):
        assignment = {1: bits[0], 2: bits[1]}
        assert falsified_clause(f, assignment) is not None


# --- DIMACS -------------------------------------------------------------------


def test_write_dimacs_exact_bytes():
    f = CnfFormula(2)
    f.add_clauses([[1, -2], [2]])
    assert write_dimacs(f) == "p cnf 2 2\n1 -2 0\n2 0\n"
    assert write_dimacs(CnfFormula(0)) == "p cnf 0 0\n"
    g = CnfFormula(3)
    g.add_clause([-3])
    assert write_dimacs(g) == "p cnf 3 1\n-3 0\n"
    # the empty clause is a bare terminator
    h = CnfFormula(1)
    h.add_clauses([[1], []])
    assert write_dimacs(h) == "p cnf 1 2\n1 0\n0\n"


def reference_dimacs(num_vars, clauses):
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, clause + [0])) for clause in clauses]
    return "\n".join(lines) + "\n"


def test_write_dimacs_matches_a_reference_serialization():
    rng = random.Random(7)
    for num_vars in (1, 2, 9, 10, 11, 99, 100, 1000):
        extremes = [1, -1, num_vars, -num_vars]
        clauses = []
        for _ in range(rng.randrange(1, 40)):
            size = rng.randrange(0, 6)
            clauses.append([rng.choice(extremes) if rng.random() < 0.3 else
                            rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(size)])
        f = CnfFormula(num_vars)
        for start in range(0, len(clauses), 7):
            f.add_clauses(clauses[start : start + 7])
        assert write_dimacs(f) == reference_dimacs(num_vars, clauses)
        assert [list(c) for c in f.clauses] == clauses


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


def test_falsified_clause_over_all_assignments():
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
        assert (falsified_clause(f, assignment) is None) == expected
        satisfying += expected
    assert satisfying == 2


def first_falsified_clause_by_definition(formula, assignment, units):
    for clause in [*formula.clauses, *([lit] for lit in units)]:
        if not clause_satisfied(clause, assignment):
            return list(clause)
    return None


def test_falsified_clause_matches_the_clause_by_clause_definition():
    rng = random.Random(8)
    kinds = set()
    for _ in range(600):
        nv = rng.randint(0, 6)
        f = CnfFormula(nv)
        for _ in range(rng.randint(0, 8)):
            # widths 0 and 1 give empty clauses and units inside the formula
            width = rng.randint(0, min(3, nv))
            f.add_clause(rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), width))
        units = [rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), rng.randint(0, nv))]
        # a partial assignment: missing variables count as false
        assignment = {v: rng.random() < 0.5 for v in range(1, nv + 1) if rng.random() < 0.9}
        expected = first_falsified_clause_by_definition(f, assignment, units)
        assert falsified_clause(f, assignment, units) == expected
        if expected is not None:
            from_units = expected not in [list(c) for c in f.clauses]
            kinds.add((min(len(expected), 2), from_units))
    # empty clauses, units and longer clauses of the formula, and the extra units
    assert kinds >= {(0, False), (1, False), (2, False), (1, True)}
