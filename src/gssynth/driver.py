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

A model that fails replay, or that decodes to more operations than its probe's
depth allows, raises EncodingSoundnessError: it means the encoder and the
graph semantics disagree, which must never be reported as a verdict.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .cnf import Query, QueryBase, SolveStatus
from .encoding import encode_bmc
from .graphs import SynthesisInstance, isolated_vertices
from .solvers import SolverBackend
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
    """Limits on one search: None sets no limit, 0 is a limit like any other."""

    solve_seconds: Optional[float] = None  # per solver call
    total_seconds: Optional[float] = None  # whole search
    max_operations: Optional[int] = None  # overrides the default depth cap

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None and not value >= 0:  # NaN fails this too
                raise ValueError(f"{name} must be at least 0, not {value}")


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


def synthesize(
    inst: SynthesisInstance,
    backend: SolverBackend,
    limits: Limits = Limits(),
) -> SynthesisOutcome:
    """Decide reachability by binary search over the unrolling depth.

    Satisfiability is monotone in the number of states (identity steps pad),
    so one bisection over [1, cap + 1] states finds the smallest satisfiable
    depth.  Where the cap is a completeness threshold, the first probe is the
    top depth, cap + 1, whose UNSAT answer alone settles the instance;
    elsewhere UNSAT there proves nothing, and the bisection starts at the
    midpoint, since models at shallow depths are found fastest.  Only the top
    depth is encoded: a probe at s states is the same formula under the
    layout's `probe_assumptions(s)`, and one solver query base serves every
    probe, letting the builtin keep what it learned.  Every model is decoded
    and replayed at once, and the next depths probed lie below the witness's
    length.  A probe the solver cannot settle within its time slice is
    skipped upward (toward slacker, easier-to-satisfy depths).  The verdict is
    read after the search from the shortest replayed witness, whether every
    probe without a model was UNSAT, whether the budget ran out, and whether
    the cap is a completeness threshold; a skip forfeits the minimality claim
    but never the soundness of the verdict.
    """
    threshold = completeness_threshold(inst)
    if threshold.sound and (vertex := trivially_unreachable(inst)) is not None:
        return SynthesisOutcome(
            Verdict.UNREACHABLE,
            None,
            threshold,
            reason=f"vertex {vertex} is isolated in the source but not in the target",
        )
    cap = threshold.max_transitions
    if limits.max_operations is not None:
        # a deeper search than a sound threshold adds nothing
        cap = min(cap, limits.max_operations) if threshold.sound else limits.max_operations
    sound = threshold.sound and cap == threshold.max_transitions
    deadline = None if limits.total_seconds is None else time.monotonic() + limits.total_seconds
    top = cap + 1
    probes: List[DepthProbe] = []
    best: Optional[Tuple[int, Witness]] = None  # (num_states, witness), the shortest so far
    gave_up: Optional[str] = None  # why a probe ended with neither a model nor UNSAT
    # a spent budget stops before encoding, which costs seconds at paper scale
    out_of_time = deadline is not None and time.monotonic() >= deadline
    if not out_of_time:
        formula, layout = encode_bmc(inst, top)
        base = QueryBase(formula)
    lo, hi = 1, top
    num_states = top if sound else (lo + hi) // 2
    while lo <= hi and not out_of_time:
        timeout = limits.solve_seconds
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                out_of_time = True
                break
            timeout = left if timeout is None else min(timeout, left)
        result = backend.solve(Query(base, layout.probe_assumptions(num_states)), timeout=timeout)
        probes.append(
            DepthProbe(num_states, result.status, result.seconds, formula.num_vars,
                       len(formula.clauses), result.conflicts, result.decisions)
        )
        if result.status is SolveStatus.SAT:
            witness = decode(result.assignment, layout)
            report = replay_verify(inst, witness)
            if not report.ok:
                raise EncodingSoundnessError(report.message)
            if len(witness.operations) >= num_states:
                # a longer witness would leave hi at this depth, probed forever
                raise EncodingSoundnessError(
                    f"{len(witness.operations)} operations from a probe at {num_states} states"
                )
            best = (num_states, witness)
            # a witness of k operations settles every depth above k states
            hi = len(witness.operations)
        else:
            if result.status is not SolveStatus.UNSAT:
                gave_up = result.detail or f"solver gave up at {num_states} states"
            lo = num_states + 1
        num_states = (lo + hi) // 2
    minimal = best is not None and gave_up is None and not out_of_time
    if best is not None:
        verdict, reason = Verdict.REACHABLE, f"model at {best[0]} states"
        if not minimal:
            reason += "; minimality not established"
            if out_of_time:
                reason += " (time budget exhausted)"
    elif out_of_time:
        verdict, reason = Verdict.UNKNOWN, "time budget exhausted"
    elif gave_up is not None:
        verdict, reason = Verdict.UNKNOWN, gave_up
    elif sound:
        verdict = Verdict.UNREACHABLE
        reason = f"unsatisfiable at the completeness threshold ({cap} operations)"
    else:
        verdict = Verdict.UNKNOWN
        reason = f"unsatisfiable up to {cap} operations, which proves nothing here"
    witness = None if best is None else best[1]
    return SynthesisOutcome(verdict, witness, threshold, probes, reason, minimal)
