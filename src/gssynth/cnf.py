"""CNF formulas, the queries a solver answers, DIMACS serialization, and SAT
solver output parsing.

Variables are positive integers 1..num_vars; a literal is a nonzero signed
integer.  An assignment maps every variable index to a boolean.
"""

from __future__ import annotations

import enum
import re
import struct
import sys
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

Literal = int
Clause = List[Literal]
Assignment = Dict[int, bool]


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class CnfFormula:
    """Clauses over a fixed variable range, stored as DIMACS lays them out.

    `literals` holds every clause back to back, each ended by 0, and clause i
    is `literals[starts[i]:starts[i + 1] - 1]`; `starts` ends with the length
    of `literals`.  The variable range is declared up front; add_clauses and
    add_shifted reject literals outside it so encoding bugs surface at
    construction time instead of as silently-free solver variables.
    """

    num_vars: int = 0
    literals: array = field(default_factory=lambda: array("i"), init=False)
    starts: array = field(default_factory=lambda: array("q", [0]), init=False)

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("variable count must be nonnegative")

    @property
    def clauses(self) -> ClauseView:
        return ClauseView(self)

    def add_clauses(self, clause_list: Iterable[Sequence[Literal]]) -> None:
        """Append a batch of clauses, or none of them if one literal is bad."""
        clauses = clause_list if isinstance(clause_list, list) else list(clause_list)
        used = set().union(*clauses)
        if 0 in used:
            raise ValueError("literal 0 is reserved for clause terminators")
        if used:
            low, high = min(used), max(used)
            if low < -self.num_vars or high > self.num_vars:
                bad = low if low < -self.num_vars else high
                raise ValueError(f"literal {bad} outside declared range 1..{self.num_vars}")
        base = len(self.literals)
        flat: List[Literal] = []
        next_starts: List[int] = []
        for clause in clauses:
            flat += clause
            flat.append(0)
            next_starts.append(base + len(flat))
        # packing converts the ints about twice as fast as array.fromlist
        self.literals.frombytes(struct.pack(f"{len(flat)}i", *flat))
        self.starts.fromlist(next_starts)

    def add_shifted(self, first: int, end: int, shifts: Sequence[int], copies: int) -> None:
        """Append copies 1..copies of clauses first..end-1, copy c moving v to v + c*shifts[v].

        Each literal keeps its sign.  `shifts` has num_vars+1 entries, none
        negative, and shifts[0] = 0 keeps the terminators; no variable may move
        past num_vars in the last copy.  If a check fails, nothing is appended.
        """
        nv, size = self.num_vars, self.literals.itemsize
        if not 0 <= first <= end < len(self.starts):
            raise ValueError(f"clause range {first}..{end} out of range")
        if len(shifts) != nv + 1:
            raise ValueError(f"need {nv + 1} shifts, not {len(shifts)}")
        if shifts[0] != 0 or min(shifts) < 0 or copies < 0:
            raise ValueError("shifts[0] must be 0, and no shift or copy count negative")
        top = max((v + copies * s for v, s in enumerate(shifts) if s), default=0)
        if top > min(nv, (1 << 8 * size - 1) - 1):
            raise ValueError(f"literal {top} outside declared range 1..{nv}")
        start, stop = self.starts[first], self.starts[end]
        block = self.literals[start:stop]
        # A copy is one addition to the block read as one big integer of
        # unsigned fields.  No field carries: a positive literal v grows, and a
        # negative one (2**32 - v) shrinks, without crossing 2**31.  The step is
        # the positive literals' shifts minus the negative ones', as a negative
        # field would borrow from its neighbour.
        order, width, lits = sys.byteorder, len(block) * size, block.tolist()
        up = [*shifts, *[0] * nv]  # indexed by literal: -v lands at 2*nv+1-v
        down = [*[0] * (nv + 1), *shifts[:0:-1]]
        step = int.from_bytes(struct.pack(f"{len(lits)}i", *map(up.__getitem__, lits)), order)
        step -= int.from_bytes(struct.pack(f"{len(lits)}i", *map(down.__getitem__, lits)), order)
        field = int.from_bytes(block.tobytes(), order)
        # copy c's clause ends, likewise as 8-byte fields, each len(block) past c-1's
        base = len(self.literals) - start
        ends = array("q", [base + s for s in self.starts[first + 1 : end + 1]])
        advance = len(block) * int.from_bytes(array("q", [1] * len(ends)).tobytes(), order)
        ends_field, ends_width = int.from_bytes(ends.tobytes(), order), len(ends) * ends.itemsize
        for _ in range(copies):
            field += step
            self.literals.frombytes(field.to_bytes(width, order))
            self.starts.frombytes(ends_field.to_bytes(ends_width, order))
            ends_field += advance


class ClauseView(Sequence):
    """The clauses of a formula, each an int memoryview into its literals.

    Writing to an item writes to the formula.  The formula cannot grow while
    an item is alive, since its buffer is exported.
    """

    def __init__(self, formula: CnfFormula) -> None:
        self._formula = formula

    def __len__(self) -> int:
        return len(self._formula.starts) - 1

    def __getitem__(self, index: int) -> memoryview:
        count = len(self)
        if not -count <= index < count:
            raise IndexError("clause index out of range")
        starts = self._formula.starts
        index %= count
        return memoryview(self._formula.literals)[starts[index] : starts[index + 1] - 1]

    def __iter__(self) -> Iterator[memoryview]:
        view = memoryview(self._formula.literals)
        for start, end in pairwise(self._formula.starts):
            yield view[start : end - 1]


class QueryBase:
    """A formula that a run of queries shares.

    `search` is a slot in which a backend may keep its search between queries
    on this formula (the builtin keeps its learned clauses there).  The search
    lives as long as the base, so whoever makes the base decides its lifetime.
    """

    def __init__(self, formula: CnfFormula) -> None:
        self.formula = formula
        self.search: object = None


class Query:
    """The formula of `base` under assumptions: SAT iff both hold.

    Assumptions bind only this query; a clause learned under them still
    follows from the formula alone.
    """

    def __init__(self, base: QueryBase, assumptions: Tuple[Literal, ...] = ()) -> None:
        nv = base.formula.num_vars
        for lit in assumptions:
            if lit == 0 or not -nv <= lit <= nv:
                raise ValueError(f"assumption {lit} outside declared range 1..{nv}")
        self.base = base
        self.assumptions = assumptions

    @property
    def formula(self) -> CnfFormula:
        return self.base.formula


def as_query(problem: Union[CnfFormula, Query]) -> Query:
    """A bare formula is a query without assumptions on a base of its own."""
    return problem if isinstance(problem, Query) else Query(QueryBase(problem))


# literals joined at a time by dimacs_slices, so its word list stays small
_DIMACS_SLICE = 1 << 16


def dimacs_slices(formula: CnfFormula, units: Sequence[Literal] = ()) -> Iterator[str]:
    """DIMACS CNF of the formula plus one unit clause per literal of `units`.

    The text comes in slices (the header, then 65,536 literals at a time), so
    a caller can write it out without ever holding all of it.
    """
    nv = formula.num_vars
    # indexed by literal: -v lands at 2*nv+1-v, and the terminator 0 at 0
    words = ["0\n"]
    words += [f"{v} " for v in range(1, nv + 1)]
    words += [f"-{v} " for v in range(nv, 0, -1)]
    literals = formula.literals
    yield f"p cnf {nv} {len(formula.clauses) + len(units)}\n"
    for start in range(0, len(literals), _DIMACS_SLICE):
        yield "".join(map(words.__getitem__, literals[start : start + _DIMACS_SLICE]))
    for lit in units:
        yield f"{lit} 0\n"


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS CNF.  Deterministic: same formula, same bytes."""
    return "".join(dimacs_slices(formula))


_ANSI_ESCAPE = re.compile(r"\x1b\[[0-9;]*[A-Za-z]")


def parse_model(output: str, num_vars: int) -> Tuple[SolveStatus, Optional[Assignment]]:
    """Parse SAT-competition solver output ("s ..." and "v ..." lines).

    ANSI color escapes are stripped first; some solvers colorize the status
    line.  On SAT, variables the solver leaves unmentioned default to false so
    the returned assignment is total over 1..num_vars.  A "v" line holding
    anything but integers raises ValueError, naming the line.
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
            try:
                values.extend(int(tok) for tok in line[1:].split())
            except ValueError:
                raise ValueError(f"malformed model line {line!r}") from None
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


# a clause is falsified where a terminator (2), or the start, is followed by
# nothing but false literals (0) up to the next terminator
_FALSIFIED = re.compile(rb"\x02\x00*\x02")


def falsified_clause(
    formula: CnfFormula, assignment: Assignment, units: Sequence[Literal] = ()
) -> Optional[Clause]:
    """The first clause the assignment falsifies, or None.

    Unassigned variables count as false.  `units` count as unit clauses after
    the formula's, as `dimacs_slices` writes them.
    """
    nv = formula.num_vars
    values = [1 if assignment.get(v, False) else 0 for v in range(1, nv + 1)]
    # indexed by literal like dimacs_slices' words, and 0 marks a clause's end
    truth = [2, *values, *(1 - value for value in reversed(values))]
    flags = bytes(map(truth.__getitem__, formula.literals))
    found = _FALSIFIED.search(b"\x02" + flags)
    if found is not None:
        return list(formula.clauses[bisect_left(formula.starts, found.start())])
    for lit in units:
        if not clause_satisfied([lit], assignment):
            return [lit]
    return None
