"""CNF formulas, DIMACS serialization, and SAT solver output parsing.

Variables are positive integers 1..num_vars; a literal is a nonzero signed
integer.  An assignment maps every variable index to a boolean.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

Literal = int
Clause = List[Literal]
Assignment = Dict[int, bool]


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class CnfFormula:
    """Clause list over a fixed variable range.

    The variable range is declared up front; add_clause rejects literals
    outside it so encoding bugs surface at construction time instead of as
    silently-free solver variables.
    """

    num_vars: int = 0
    clauses: List[Clause] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("variable count must be nonnegative")

    def add_clause(self, literals: Iterable[Literal]) -> None:
        clause = list(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("literal 0 is reserved for clause terminators")
            if abs(lit) > self.num_vars:
                raise ValueError(
                    f"literal {lit} outside declared range 1..{self.num_vars}"
                )
        self.clauses.append(clause)

    def add_clauses(self, clause_list: Iterable[Iterable[Literal]]) -> None:
        for clause in clause_list:
            self.add_clause(clause)


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS CNF.  Deterministic: same formula, same bytes."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


_ANSI_ESCAPE = re.compile(r"\x1b\[[0-9;]*[A-Za-z]")


def parse_model(output: str, num_vars: int) -> Tuple[SolveStatus, Optional[Assignment]]:
    """Parse SAT-competition solver output ("s ..." and "v ..." lines).

    ANSI color escapes are stripped first; some solvers colorize the status
    line.  On SAT, variables the solver leaves unmentioned default to false so
    the returned assignment is total over 1..num_vars.
    """
    status = SolveStatus.UNKNOWN
    values: List[int] = []
    for raw in output.splitlines():
        line = _ANSI_ESCAPE.sub("", raw).strip()
        if line.startswith("s "):
            # some solvers decorate the status line ("s UNSATISFIABLE: file.cnf")
            verdict = line.split()[1].rstrip(":,").upper()
            if verdict == "SATISFIABLE":
                status = SolveStatus.SAT
            elif verdict == "UNSATISFIABLE":
                status = SolveStatus.UNSAT
        elif line.startswith("v ") or line == "v":
            values.extend(int(tok) for tok in line[1:].split())
    if status is not SolveStatus.SAT:
        return status, None
    assignment: Assignment = {v: False for v in range(1, num_vars + 1)}
    for lit in values:
        if lit == 0:
            continue
        var = abs(lit)
        if 1 <= var <= num_vars:
            assignment[var] = lit > 0
    return status, assignment


def clause_satisfied(clause: Clause, assignment: Assignment) -> bool:
    return any(assignment.get(abs(lit), False) == (lit > 0) for lit in clause)


def check_assignment(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff the assignment satisfies every clause."""
    return all(clause_satisfied(clause, assignment) for clause in formula.clauses)
