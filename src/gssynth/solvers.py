"""SAT solver backends.

Two interchangeable backends solve CnfFormula instances:

* ExternalSolver shells out to any DIMACS solver that prints SAT-competition
  "s ..."/"v ..." output (splr, kissat, cadical, glucose, ...).
* InProcessSolver is a self-contained CDCL solver, useful where no solver
  binary is installed.

Both take a formula, or a Query (a formula under assumption literals), and
return a SolveResult with the same semantics, so callers never depend on which
backend ran.
"""

from __future__ import annotations

import math
import os
import shlex
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from itertools import pairwise
from typing import List, Optional, Protocol, Sequence, Tuple, Union

from .cnf import (
    Assignment,
    CnfFormula,
    Literal,
    Query,
    SolveStatus,
    as_query,
    dimacs_slices,
    falsified_clause,
    parse_model,
)

SOLVER_ENV_VAR = "GSSYNTH_SOLVER"


@dataclass
class SolveResult:
    status: SolveStatus
    assignment: Optional[Assignment]
    seconds: float
    detail: str = ""
    conflicts: int = 0  # counted by the builtin only
    decisions: int = 0  # free decisions, assumptions not counted; builtin only


class SolverBackend(Protocol):
    name: str

    def solve(
        self, formula: Union[CnfFormula, Query], timeout: Optional[float] = None
    ) -> SolveResult:
        ...


class SolverNotFoundError(RuntimeError):
    pass


# --- external backend --------------------------------------------------------


class ExternalSolver:
    """Run a solver binary on a DIMACS file and parse its stdout.

    The solver runs inside a fresh temporary directory so solvers that drop
    answer files never pollute the caller's working directory.  A query's
    assumptions are written as unit clauses after the formula, and the text
    goes to the file slice by slice, never whole in memory.  Only the
    "s"/"v" lines are read; the exit code and the last line on stderr go
    into the result's detail on every call that does not time out.  Bytes
    that are not UTF-8 are read as U+FFFD.  A model is checked against the
    formula and the assumptions; a malformed "v" line, or a model that
    falsifies a clause, is answered UNKNOWN with that line or clause leading
    the detail.
    """

    def __init__(self, command: Sequence[str]) -> None:
        if not command:
            raise ValueError("empty solver command")
        resolved = shutil.which(command[0])
        if resolved is None:
            raise SolverNotFoundError(f"solver binary {command[0]!r} not on PATH")
        # absolute, because the solver runs in a scratch directory
        self.command = [os.path.abspath(resolved), *command[1:]]
        self.name = os.path.basename(command[0])

    def solve(
        self, formula: Union[CnfFormula, Query], timeout: Optional[float] = None
    ) -> SolveResult:
        start = time.monotonic()
        query = as_query(formula)
        with tempfile.TemporaryDirectory(prefix="gssynth-") as tmp:
            path = os.path.join(tmp, "problem.cnf")
            with open(path, "w") as fh:
                fh.writelines(dimacs_slices(query.formula, query.assumptions))
            try:
                proc = subprocess.run(
                    [*self.command, path],
                    cwd=tmp,
                    capture_output=True,
                    text=True,
                    errors="replace",
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return SolveResult(
                    SolveStatus.UNKNOWN,
                    None,
                    time.monotonic() - start,
                    detail="timeout",
                )
            # whatever the answer, keep how the solver ended and what it said last
            said = [line.strip() for line in proc.stderr.splitlines() if line.strip()]
            detail = f"exit {proc.returncode}" + (f": {said[-1]}" if said else "")
            try:
                status, assignment = parse_model(proc.stdout, query.formula.num_vars)
            except ValueError as exc:  # a malformed model is no answer
                status, assignment, detail = SolveStatus.UNKNOWN, None, f"{exc}; {detail}"
        if status is SolveStatus.SAT:
            # a model that falsifies the query is the solver's fault: no answer
            falsified = falsified_clause(query.formula, assignment, query.assumptions)
            if falsified is not None:
                status, assignment = SolveStatus.UNKNOWN, None
                clause = " ".join(map(str, falsified))
                detail = f"model falsifies clause {clause} 0; {detail}"
        return SolveResult(status, assignment, time.monotonic() - start, detail)


# solvers probed for on PATH, with the flags that make them print a model
_KNOWN_SOLVERS = {
    "kissat": ["-q"],
    "cadical": ["-q"],
    "cadical-dimacs": [],
    "glucose": ["-model"],
    "varisat": [],
    "splr": ["-q", "-r", "-"],
}


def resolve_backend(spec: Optional[str] = None) -> SolverBackend:
    """Pick a backend.

    Order: explicit `spec` command line, then the GSSYNTH_SOLVER environment
    variable, then the first known solver binary on PATH, then the in-process
    solver.  `spec="builtin"` forces the in-process solver.  A known solver
    named alone, by name or by path, gets its flags as on a PATH probe.
    """
    spec = spec if spec is not None else os.environ.get(SOLVER_ENV_VAR)
    if spec is not None:
        spec = spec.strip()
        if spec == "builtin":
            return InProcessSolver()
        parts = shlex.split(spec)
        if not parts:
            raise ValueError("empty solver command")
        if len(parts) == 1:
            parts += _KNOWN_SOLVERS.get(os.path.basename(parts[0]), [])
        return ExternalSolver(parts)
    for name, flags in _KNOWN_SOLVERS.items():
        if shutil.which(name):
            return ExternalSolver([name, *flags])
    return InProcessSolver()


# --- in-process backend -------------------------------------------------------


class InProcessSolver:
    """Conflict-driven clause learning solver.

    Two-literal watching, first-UIP learning, exponential-decay variable
    activities with phase saving, and Luby-sequence restarts stepped by
    Knuth's reluctant doubling.  The assignment and the watch lists are plain
    lists indexed by literal (after MiniSat), so propagation reads a literal's
    value with one lookup and compacts each watch list in place.  A decision
    takes the highest free activity through one max() over a list holding
    each free variable's activity (-1.0 for an assigned one), which gives the
    same variable as a scan: the first free variable of highest activity.  Each
    clause is loaded as given and first watched by its first two literals,
    so the order the encoder writes (ascending variables) fixes the search;
    a repeated literal or a tautology needs no special case.
    Deterministic: no randomized heuristics, so repeated runs give identical
    models.

    One search answers every query on a QueryBase: it is made on the first
    query and kept in the base's slot, so learned clauses, activities and
    saved phases carry over from one query to the next, and it is freed with
    the base.  A query's assumptions are decided first, one per decision level
    (as in MiniSat); an assumption found false answers UNSAT for that query
    alone; answered or raising, every query leaves the search at level 0.  A
    bare formula gets a search of its own.
    """

    name = "builtin"

    def solve(
        self, formula: Union[CnfFormula, Query], timeout: Optional[float] = None
    ) -> SolveResult:
        start = time.monotonic()
        deadline = start + timeout if timeout is not None else None
        query = as_query(formula)
        base = query.base
        if base.search is None:
            base.search = _Search(base.formula)
        status, model, conflicts, decisions = base.search.run(deadline, query.assumptions)
        return SolveResult(
            status,
            model,
            time.monotonic() - start,
            "timeout" if status is SolveStatus.UNKNOWN else "",
            conflicts,
            decisions,
        )


RESTART_BASE = 128  # conflicts per unit of the Luby restart sequence
ACTIVITY_DECAY = 0.95  # older bumps weigh this much less after each conflict


class _Search:
    def __init__(self, formula: CnfFormula) -> None:
        self.nv = formula.num_vars
        # indexed by literal: -v lands at 2*nv+1-v, past every positive literal
        self.value = [0] * (2 * self.nv + 1)  # 0 free, 1 true, -1 false
        self.watches: List[List[List[int]]] = [[] for _ in range(2 * self.nv + 1)]
        self.level = [0] * (self.nv + 1)
        self.reason: List[Optional[List[int]]] = [None] * (self.nv + 1)
        self.saved_phase = [False] * (self.nv + 1)
        self.activity = [0.0] * (self.nv + 1)
        # a free variable's activity, -1.0 for an assigned one: max() finds the
        # highest free activity and index() its first variable
        self.free_act = [-math.inf] + self.activity[1:]
        self.act_inc = 1.0
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.root_conflict = False  # the formula itself is UNSAT
        literals, starts = formula.literals.tolist(), formula.starts.tolist()
        clauses = [literals[start : end - 1] for start, end in pairwise(starts)]
        for clause in clauses:
            if len(clause) > 1:
                self._attach(clause)
            elif not clause or not self._enqueue(clause[0], None):
                self.root_conflict = True  # an empty clause, or units that clash
        # _propagate's replacement-watch scan, by clause length; a learned
        # clause has at most nv literals, one per variable
        longest = max(map(len, clauses), default=0)
        self.scan = [range(2, size) for size in range(max(longest, self.nv) + 1)]

    # assignment ---------------------------------------------------------

    def _attach(self, clause: List[int]) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        val = self.value[lit]
        if val != 0:
            return val > 0
        self.value[lit] = 1
        self.value[-lit] = -1
        var = lit if lit > 0 else -lit
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.free_act[var] = -1.0
        self.trail.append(lit)
        return True

    def _cancel_until(self, target_level: int) -> None:
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) > target_level:
            mark = trail_lim[target_level]
            del trail_lim[target_level:]
            value, reason, saved_phase = self.value, self.reason, self.saved_phase
            activity, free_act = self.activity, self.free_act
            for lit in trail[mark:]:
                var = lit if lit > 0 else -lit
                saved_phase[var] = lit > 0
                value[lit] = value[-lit] = 0
                reason[var] = None
                free_act[var] = activity[var]
            del trail[mark:]
        self.qhead = min(self.qhead, len(trail))

    # propagation --------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Propagate the trail from qhead; return a falsified clause, if any.

        Each visited watch list is compacted in place (as in MiniSat): a
        clause that keeps watching the false literal moves down to slot j.
        """
        trail, value, watches, scan = self.trail, self.value, self.watches, self.scan
        level, reason, free_act = self.level, self.reason, self.free_act
        current = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            j = moved = 0
            for clause in watchers:
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                first_value = value[first]
                if first_value > 0:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in scan[len(clause)]:
                    lit = clause[k]
                    if value[lit] >= 0:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        moved += 1
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if first_value < 0:
                        # every clause visited so far was kept below j or moved out
                        del watchers[j : j + moved]
                        self.qhead = qhead
                        return clause
                    value[first] = 1
                    value[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = current
                    reason[var] = clause
                    free_act[var] = -1.0
                    trail.append(first)
            del watchers[j:]
        self.qhead = qhead
        return None

    # learning -----------------------------------------------------------

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        trail, reason, level, seen = self.trail, self.reason, self.level, self.seen
        activity, inc = self.activity, self.act_inc
        current = len(self.trail_lim)
        learned: List[int] = [0]  # slot 0 gets the asserting literal
        counter = 0
        clause: Optional[List[int]] = conflict
        index = len(trail) - 1
        pivot = 0
        while True:
            assert clause is not None
            for lit in clause:
                var = lit if lit > 0 else -lit
                # the pivot literal itself drops out of the resolvent
                if lit == pivot or seen[var]:
                    continue
                var_level = level[var]
                if var_level == 0:
                    continue
                seen[var] = True
                bumped = activity[var] + inc
                activity[var] = bumped
                if bumped > 1e100:
                    activity[:] = [a * 1e-100 for a in activity]
                    # free slots hold activities; -1.0 and -inf stay as they are
                    self.free_act[:] = [a * 1e-100 if a >= 0.0 else a for a in self.free_act]
                    inc *= 1e-100
                if var_level == current:
                    counter += 1
                else:
                    learned.append(lit)
            pivot = trail[index]
            while not seen[pivot if pivot > 0 else -pivot]:
                index -= 1
                pivot = trail[index]
            var = pivot if pivot > 0 else -pivot
            seen[var] = False
            index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = reason[var]
        self.act_inc = inc
        learned[0] = -pivot
        # the marks left are the tail's: every current-level mark went with its pivot
        back_pos = back_level = 0
        for i in range(1, len(learned)):
            lit = learned[i]
            var = lit if lit > 0 else -lit
            seen[var] = False
            if level[var] > back_level:
                back_pos, back_level = i, level[var]
        # watch the highest-level non-asserting literal so the clause stays
        # correct after the backjump
        if back_pos:
            learned[1], learned[back_pos] = learned[back_pos], learned[1]
        return learned, back_level

    # main loop ----------------------------------------------------------

    def _pick_branch_var(self) -> int:
        """The first free variable of highest activity, or 0 when none is free."""
        free_act = self.free_act
        best = max(free_act)
        return free_act.index(best) if best >= 0.0 else 0

    def run(
        self, deadline: Optional[float], assumptions: Tuple[Literal, ...]
    ) -> tuple[SolveStatus, Optional[Assignment], int, int]:
        """Status, model, conflicts and decisions of one call.

        Every call leaves the trail at level 0, whether it answers or raises,
        so the next call starts from the clauses alone, the learned ones
        included.  A conflict at level 0 marks the formula UNSAT for good.
        """
        if self.root_conflict:
            return SolveStatus.UNSAT, None, 0, 0
        # _analyze's marks: it clears them before it returns, and each call
        # starts clean even if the last one raised inside _analyze
        self.seen = [False] * (self.nv + 1)
        conflicts = decisions = conflicts_since_restart = 0
        # Knuth's reluctant doubling: v runs through the Luby sequence 1 1 2 1 1 2 4 ...
        u = v = 1
        try:
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    if not self.trail_lim:
                        self.root_conflict = True
                        return SolveStatus.UNSAT, None, conflicts, decisions
                    conflicts += 1
                    conflicts_since_restart += 1
                    learned, back_level = self._analyze(conflict)
                    self._cancel_until(back_level)
                    if len(learned) > 1:
                        self._attach(learned)
                    self._enqueue(learned[0], learned if len(learned) > 1 else None)
                    self.act_inc /= ACTIVITY_DECAY
                    if conflicts % 256 == 0 and deadline is not None:
                        if time.monotonic() > deadline:
                            return SolveStatus.UNKNOWN, None, conflicts, decisions
                    if conflicts_since_restart >= RESTART_BASE * v:
                        u, v = (u + 1, 1) if u & -u == v else (u, 2 * v)
                        conflicts_since_restart = 0
                        self._cancel_until(0)
                    continue
                level = len(self.trail_lim)
                if level < len(assumptions):
                    lit = assumptions[level]
                    if self.value[lit] < 0:
                        return SolveStatus.UNSAT, None, conflicts, decisions
                    # a level of its own even when already true, so that level i
                    # always holds assumption i
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(lit, None)
                    continue
                var = self._pick_branch_var()
                if var == 0:
                    model = {x: self.value[x] > 0 for x in range(1, self.nv + 1)}
                    return SolveStatus.SAT, model, conflicts, decisions
                if deadline is not None and time.monotonic() > deadline:
                    return SolveStatus.UNKNOWN, None, conflicts, decisions
                decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(var if self.saved_phase[var] else -var, None)
        finally:
            self._cancel_until(0)
