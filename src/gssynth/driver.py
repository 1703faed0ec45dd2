"""Synthesis driver: depth bounds, trivial checks, and the solve loop.

Verdict semantics
-----------------

* Reachable: a model was found, decoded, and replayed successfully against the
  plain graph semantics; the witness is attached.
* Unreachable: only claimed when a completeness threshold applies, i.e. no
  pairs are designated.  Then LC/VD reachability within
  3*(n - n mod 2)/2 + (extra isolated vertices in the target) operations is
  exhaustive, so UNSAT at the threshold is a proof.
* Unknown: solver timeout or budget exhaustion without a model, or UNSAT at a
  user depth cap that carries no completeness guarantee (always the case with
  designated pairs).

A model that fails replay raises EncodingSoundnessError: it means the encoder
and the graph semantics disagree, which must never be reported as a verdict.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .cnf import Query, QueryBase, SolveStatus
from .encoding import SynthesisInstance, encode_bmc
from .graphs import isolated_vertices
from .solvers import SolveResult, SolverBackend
from .witness import Witness, decode, replay_verify


class Verdict(enum.Enum):
    REACHABLE = "reachable"
    UNREACHABLE = "unreachable"
    UNKNOWN = "unknown"


class EncodingSoundnessError(RuntimeError):
    """A satisfying assignment decoded to a witness that fails replay."""


@dataclass(frozen=True)
class ThresholdInfo:
    """Depth bound: lc_bound covers LC/VD mixing, vd_bound the forced deletions."""

    lc_bound: int
    vd_bound: int
    sound: bool  # True only when no pairs are designated

    @property
    def max_transitions(self) -> int:
        return self.lc_bound + self.vd_bound


def completeness_threshold(inst: SynthesisInstance) -> ThresholdInfo:
    """Operation-count bound that makes UNSAT a reachability proof (D empty).

    lc_bound = 3*(n - s)/2 with s = n mod 2; vd_bound counts vertices isolated
    in the target but not in the source, each of which costs one deletion.
    With designated pairs the bound is only a search heuristic, never a proof.
    """
    n = inst.n
    lc_bound = 3 * (n - n % 2) // 2
    extra_isolated = isolated_vertices(inst.target) - isolated_vertices(inst.source)
    return ThresholdInfo(lc_bound, len(extra_isolated), not inst.designated)


def trivially_unreachable(inst: SynthesisInstance) -> Optional[int]:
    """A vertex isolated in the source but not in the target, if any.

    LC and VD never add an edge at an isolated vertex, so such a vertex proves
    unreachability.  Only sound without designated pairs (edge flips can
    re-attach a vertex), so callers must skip this check when D is nonempty.
    """
    stuck = isolated_vertices(inst.source) - isolated_vertices(inst.target)
    return min(stuck) if stuck else None


@dataclass(frozen=True)
class DepthProbe:
    """One solver call during the search.

    Every probe queries the top depth's formula, so num_vars and num_clauses
    are the same in each probe of one search.
    """

    num_states: int
    status: SolveStatus
    seconds: float
    num_vars: int
    num_clauses: int
    conflicts: int  # the builtin's counters; 0 from an external solver
    decisions: int


@dataclass(frozen=True)
class Limits:
    solve_seconds: Optional[float] = None  # per solver call
    total_seconds: Optional[float] = None  # whole search
    max_operations: Optional[int] = None  # overrides the default depth cap


@dataclass
class SynthesisOutcome:
    verdict: Verdict
    witness: Optional[Witness]
    threshold: ThresholdInfo
    probes: List[DepthProbe] = field(default_factory=list)
    reason: str = ""
    minimal: bool = False  # witness length proven minimal by the search

    @property
    def solver_seconds(self) -> float:
        return sum(p.seconds for p in self.probes)

    @property
    def depth_explored(self) -> int:
        return max((p.num_states for p in self.probes), default=0)


class _BudgetExhausted(Exception):
    pass


def synthesize(
    inst: SynthesisInstance,
    backend: SolverBackend,
    limits: Limits = Limits(),
) -> SynthesisOutcome:
    """Decide reachability by binary search over the unrolling depth.

    Satisfiability is monotone in the number of states (identity steps pad),
    so the search first probes the top depth cap + 1, whose UNSAT answer alone
    already covers every sequence of at most cap operations, then bisects
    [1, cap] for the smallest satisfiable depth.  Only the top depth is
    encoded: a probe at s states is the same formula under assumptions that
    make transitions s-1 and later identities, so the target pins state s-1,
    and one solver query base serves every probe, letting the builtin keep
    what it learned.  Every model is decoded and replayed at once, and the
    next depths probed lie below the witness's length.  A probe the solver
    cannot settle within its time slice is skipped upward (toward slacker,
    easier-to-satisfy depths); any skip forfeits the minimality claim but
    never the soundness of the verdict, since verdicts rest only on settled
    probes.
    """
    threshold = completeness_threshold(inst)
    if inst.designated:
        sound = False
        cap = limits.max_operations if limits.max_operations is not None else threshold.max_transitions
    else:
        vertex = trivially_unreachable(inst)
        if vertex is not None:
            return SynthesisOutcome(
                Verdict.UNREACHABLE,
                None,
                threshold,
                reason=f"vertex {vertex} is isolated in the source but not in the target",
            )
        cap = threshold.max_transitions
        sound = True
        if limits.max_operations is not None and limits.max_operations < cap:
            cap = limits.max_operations
            sound = False  # a shallower search proves nothing on UNSAT
    deadline = (
        time.monotonic() + limits.total_seconds
        if limits.total_seconds is not None
        else None
    )
    probes: List[DepthProbe] = []
    top = cap + 1

    def probe(num_states: int) -> tuple[SolveResult, Optional[Witness]]:
        budget = limits.solve_seconds
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _BudgetExhausted
            budget = remaining if budget is None else min(budget, remaining)
        # z = 3, both kind bits true, makes a step the identity; with every
        # step from num_states - 1 on one, the target pins that state
        identities = range(num_states - 1, top - 1)
        query = Query(base, tuple(var for t in identities for var in layout.z_vars(t)))
        result = backend.solve(query, timeout=budget)
        probes.append(
            DepthProbe(
                num_states,
                result.status,
                result.seconds,
                formula.num_vars,
                len(formula.clauses),
                result.conflicts,
                result.decisions,
            )
        )
        if result.status is not SolveStatus.SAT:
            return result, None
        witness = decode(result.assignment, layout)
        report = replay_verify(inst, witness)
        if not report.ok:
            raise EncodingSoundnessError(report.message)
        return result, witness

    best: Optional[tuple] = None  # (num_states, witness)
    exact = True
    truncated = ""
    try:
        # a spent budget stops before encoding, which costs seconds at paper scale
        if deadline is not None and time.monotonic() >= deadline:
            raise _BudgetExhausted
        formula, layout = encode_bmc(inst, top)
        base = QueryBase(formula)
        result, witness = probe(top)
        if result.status is SolveStatus.UNSAT:
            if sound:
                return SynthesisOutcome(
                    Verdict.UNREACHABLE,
                    None,
                    threshold,
                    probes,
                    f"unsatisfiable at the completeness threshold ({cap} operations)",
                )
            return SynthesisOutcome(
                Verdict.UNKNOWN,
                None,
                threshold,
                probes,
                f"unsatisfiable up to {cap} operations, which proves nothing here",
            )
        if witness is None:
            return SynthesisOutcome(
                Verdict.UNKNOWN,
                None,
                threshold,
                probes,
                result.detail or "solver gave up at the top depth",
            )
        best = (top, witness)
        # a witness of k operations settles every depth above k states
        lo, hi = 1, len(witness.operations)
        while lo <= hi:
            mid = (lo + hi) // 2
            result, witness = probe(mid)
            if witness is not None:
                best = (mid, witness)
                hi = len(witness.operations)
            elif result.status is SolveStatus.UNSAT:
                lo = mid + 1
            else:
                exact = False  # this depth stays unresolved
                lo = mid + 1
    except _BudgetExhausted:
        truncated = "time budget exhausted"
        exact = False
    if best is None:
        return SynthesisOutcome(Verdict.UNKNOWN, None, threshold, probes, truncated)
    num_states, witness = best
    reason = f"model at {num_states} states"
    if not exact:
        reason += "; minimality not established"
        if truncated:
            reason += f" ({truncated})"
    return SynthesisOutcome(
        Verdict.REACHABLE, witness, threshold, probes, reason, minimal=exact
    )
