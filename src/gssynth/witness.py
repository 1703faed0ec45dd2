"""Decoding, checking, and serializing synthesis witnesses.

A witness is the operation sequence extracted from a satisfying assignment of
the reachability formula, together with the state sequence it claims to pass
through.  `replay` is the one place that runs operations from the source;
`replay_verify` checks a witness against it, for the driver before anything is
reported and for `gssynth verify`.  A decoded witness that fails replay means
the encoding itself is broken, which callers treat as an internal error rather
than a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .cnf import Assignment
from .encoding import KIND_CODE, StepLayout
from .graphs import (
    EF, ID, LC, VD, Edge, Graph, Operation, SynthesisInstance, apply_operation, normalize_edge,
)


@dataclass(frozen=True)
class Witness:
    """Operation sequence plus every intermediate state.

    states[0] is the starting graph and states[t+1] the result of
    operations[t], so len(states) == len(operations) + 1.
    """

    operations: Tuple[Operation, ...]
    states: Tuple[Graph, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.operations) + 1:
            raise ValueError("witness needs one more state than operations")

    @property
    def final(self) -> Graph:
        return self.states[-1]


def _register_value(assignment: Assignment, variables: Sequence[int]) -> int:
    value = 0
    for j, var in enumerate(variables):
        if assignment[var]:
            value |= 1 << j
    return value


def _state_graph(assignment: Assignment, step: int, layout: StepLayout) -> Graph:
    return Graph(layout.n, _register_value(assignment, layout.state_vars(step)))


def decode(assignment: Assignment, layout: StepLayout) -> Witness:
    """Read the state rows and selector registers of a model back into a witness.

    Identity steps are padding: each is dropped together with the state it
    repeats, so the surviving states still line up with the operations.
    """
    kinds = {code: kind for kind, code in KIND_CODE.items()}
    operations: List[Operation] = []
    states: List[Graph] = [_state_graph(assignment, 0, layout)]
    for t in range(layout.num_transitions):
        kind = kinds[_register_value(assignment, layout.z_vars(t))]
        if kind == ID:
            continue
        operations.append(Operation(kind, _register_value(assignment, layout.y_vars(t))))
        states.append(_state_graph(assignment, t + 1, layout))
    return Witness(tuple(operations), tuple(states))


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    message: str = ""


def replay(inst: SynthesisInstance, operations: Sequence[Operation]) -> Witness:
    """Run operations from the source with the graph semantics.

    Raises ValueError naming the first step that does not apply.
    """
    states: List[Graph] = [inst.source]
    for step, op in enumerate(operations):
        try:
            states.append(apply_operation(states[-1], op, inst.designated))
        except ValueError as exc:
            raise ValueError(f"step {step}: {exc}") from exc
    return Witness(tuple(operations), tuple(states))


def replay_verify(inst: SynthesisInstance, witness: Witness) -> ReplayReport:
    """Replay the operations and check every state the witness claims."""
    if witness.states[0] != inst.source:
        return ReplayReport(False, "witness does not start at the source graph")
    try:
        replayed = replay(inst, witness.operations)
    except ValueError as exc:
        return ReplayReport(False, str(exc))
    for step, (claimed, state) in enumerate(zip(witness.states[1:], replayed.states[1:])):
        if claimed != state:
            return ReplayReport(False, f"step {step}: replayed state disagrees with witness")
    if replayed.final != inst.target:
        return ReplayReport(False, "witness does not end at the target graph")
    return ReplayReport(True)


# --- text format ----------------------------------------------------------------
#
# One operation per line: "LC k", "VD k", or "EF u v" (the designated pair is
# written out, not its index, so the file stands alone).


def witness_to_text(operations: Sequence[Operation], designated: Sequence[Edge] = ()) -> str:
    lines = ("EF {} {}".format(*designated[op.arg]) if op.kind == EF else str(op)
             for op in operations)
    return "".join(line + "\n" for line in lines)


def operations_from_text(text: str, designated: Sequence[Edge] = ()) -> List[Operation]:
    """Parse the witness text format back into operations.

    EF lines name a vertex pair, which must be one of the designated pairs.
    """
    pair_to_index = {pair: i for i, pair in enumerate(designated)}
    operations: List[Operation] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *args = line.split()
        if kind == ID and not args:
            operations.append(Operation(ID, 0))
        elif kind in (LC, VD) and len(args) == 1:
            operations.append(Operation(kind, int(args[0])))
        elif kind == EF and len(args) == 2:
            u, v = int(args[0]), int(args[1])
            index = pair_to_index.get(normalize_edge(u, v))
            if index is None:
                raise ValueError(f"EF pair ({u}, {v}) is not designated")
            operations.append(Operation(EF, index))
        else:
            raise ValueError(f"bad witness line {line!r}")
    return operations
