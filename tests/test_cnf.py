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


def test_add_clauses_tracks_vars_and_clauses():
    f = CnfFormula(2)
    f.add_clauses([[1, -2]])
    assert f.num_vars == 2
    assert [list(c) for c in f.clauses] == [[1, -2]]


def test_add_clauses_rejects_zero_and_out_of_range_literals():
    f = CnfFormula(2)
    with pytest.raises(ValueError):
        f.add_clauses([[1, 0]])
    with pytest.raises(ValueError):
        f.add_clauses([[5]])
    with pytest.raises(ValueError):
        f.add_clauses([[-3]])


def test_a_rejected_batch_appends_nothing():
    f = CnfFormula(2)
    with pytest.raises(ValueError, match="literal 5 "):
        f.add_clauses([[1], [5]])
    assert len(f.clauses) == 0
    with pytest.raises(ValueError, match="literal 0 "):
        f.add_clauses([[2, -1], [1, 0, 2]])
    assert len(f.clauses) == 0
    assert write_dimacs(f) == "p cnf 2 0\n"


def test_add_shifted_copies_a_clause_range():
    f = CnfFormula(8)
    f.add_clauses([[1], [1, -2, -8], [], [2], [-3, 4]])
    shifts = [0, 2, 1, 0, 1, 0, 0, 0, 0]  # 1 moves 2 a copy, 2 and 4 move 1, the rest stay
    f.add_shifted(1, 4, shifts, 2)  # a clause with a negative literal, an empty one and a unit
    old = [[1], [1, -2, -8], [], [2], [-3, 4]]
    assert [list(c) for c in f.clauses] == old + [[3, -3, -8], [], [3], [5, -4, -8], [], [4]]
    assert write_dimacs(f).endswith("-3 4 0\n3 -3 -8 0\n0\n3 0\n5 -4 -8 0\n0\n4 0\n")
    literals, starts = f.literals.tolist(), f.starts.tolist()
    f.add_shifted(0, 5, shifts, 0)  # no copy
    f.add_shifted(2, 2, shifts, 3)  # an empty range
    assert f.literals.tolist() == literals and f.starts.tolist() == starts
    f.add_shifted(10, 11, tuple(shifts), 1)  # the last clause, shifts as a tuple
    assert list(f.clauses[-1]) == [5] and f.starts[-1] == len(f.literals)


def test_a_rejected_shift_appends_nothing():
    f = CnfFormula(5)
    f.add_clauses([[-1, 2], [3]])
    literals, starts = f.literals.tolist(), f.starts.tolist()
    good = [0, 2, 0, 1, 0, 0]
    bad_calls = [
        ("literal 7 ", (0, 2, good, 3)),  # -1 lands on -7 in the third copy
        ("literal 6 ", (0, 2, [0, 0, 0, 0, 0, 1], 1)),  # even a variable no clause uses
        ("need 6 shifts", (0, 2, good[:-1], 1)),
        ("negative", (0, 2, [0, 2, -1, 1, 0, 0], 1)),
        (r"shifts\[0\]", (0, 2, [1, 2, 0, 1, 0, 0], 1)),
        ("copy count", (0, 2, good, -1)),
        ("clause range 1..3", (1, 3, good, 1)),
        ("clause range 2..1", (2, 1, good, 1)),
        ("clause range -1..1", (-1, 1, good, 1)),
    ]
    for message, call in bad_calls:
        with pytest.raises(ValueError, match=message):
            f.add_shifted(*call)
        assert f.literals.tolist() == literals and f.starts.tolist() == starts
    f.add_shifted(0, 1, good, 2)  # -1 lands exactly on -5 in the last copy
    assert [list(c) for c in f.clauses][2:] == [[-3, 2], [-5, 2]]


def test_add_shifted_matches_a_per_literal_reference():
    # literals of both signs near the ends of a range of more than 2**20
    # variables, so every byte of a field and a borrow between fields matter
    rng = random.Random(7)
    nv, copies = (1 << 20) + 12345, 3
    shifts = [0] * (nv + 1)
    variables = rng.sample(range(nv - 3000, nv + 1), 600) + rng.sample(range(1, nv + 1), 600)
    for var in variables:
        shifts[var] = rng.randint(0, (nv - var) // copies)
    clauses = [
        [rng.choice((1, -1)) * rng.choice(variables) for _ in range(rng.randint(0, 6))]
        for _ in range(800)
    ]
    f = CnfFormula(nv)
    f.add_clauses(clauses)
    f.add_shifted(100, 700, shifts, copies)

    def moved(lit, c):
        var = abs(lit) + c * shifts[abs(lit)]
        return var if lit > 0 else -var

    copied = [[moved(lit, c) for lit in clause] for c in (1, 2, 3) for clause in clauses[100:700]]
    assert [list(c) for c in f.clauses] == clauses + copied
    assert f.starts[-1] == len(f.literals)


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
    f.add_clauses([[-3]])
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
    f.add_clauses([[]])
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
    g.add_clauses([[-3]])
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
            f.add_clauses([[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), width)]])
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
