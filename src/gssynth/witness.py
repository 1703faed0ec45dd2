"""Decoding, checking, and serializing synthesis witnesses.

A witness is the operation sequence extracted from a satisfying assignment of
the reachability formula, together with the state sequence it claims to pass
through.  Witnesses are always re-checked against the plain graph semantics
before being reported; a decoded witness that fails replay means the encoding
itself is broken, which callers treat as an internal error rather than a
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .cnf import Assignment
from .encoding import KIND_CODE, StepLayout
from .graphs import EF, ID, LC, VD, Edge, Graph, Operation, SynthesisInstance, apply_operation


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
    def initial(self) -> Graph:
        return self.states[0]

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
    failed_step: Optional[int] = None


def replay_verify(inst: SynthesisInstance, witness: Witness) -> ReplayReport:
    """Re-run the operations with the graph semantics and check every claim."""
    if witness.initial != inst.source:
        return ReplayReport(False, "witness does not start at the source graph")
    current = inst.source
    for step, (op, claimed) in enumerate(zip(witness.operations, witness.states[1:])):
        try:
            current = apply_operation(current, op, inst.designated)
        except ValueError as exc:
            return ReplayReport(False, f"step {step}: {exc}", step)
        if current != claimed:
            return ReplayReport(
                False, f"step {step}: replayed state disagrees with witness", step
            )
    if current != inst.target:
        return ReplayReport(False, "witness does not end at the target graph")
    return ReplayReport(True)


# --- text format ----------------------------------------------------------------
#
# One operation per line: "LC k", "VD k", or "EF u v" (the designated pair is
# written out, not its index, so the file stands alone).


def witness_to_text(operations: Sequence[Operation], designated: Sequence[Edge] = ()) -> str:
    lines: List[str] = []
    for op in operations:
        if op.kind == EF:
            u, v = designated[op.arg]
            lines.append(f"EF {u} {v}")
        elif op.kind == ID:
            lines.append("ID")
        else:
            lines.append(f"{op.kind} {op.arg}")
    return "\n".join(lines) + ("\n" if lines else "")


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
        parts = line.split()
        if parts[0] == ID and len(parts) == 1:
            operations.append(Operation(ID, 0))
        elif parts[0] in (LC, VD) and len(parts) == 2:
            operations.append(Operation(parts[0], int(parts[1])))
        elif parts[0] == EF and len(parts) == 3:
            u, v = int(parts[1]), int(parts[2])
            pair = (u, v) if u < v else (v, u)
            if pair not in pair_to_index:
                raise ValueError(f"EF pair ({u}, {v}) is not designated")
            operations.append(Operation(EF, pair_to_index[pair]))
        else:
            raise ValueError(f"bad witness line {line!r}")
    return operations


def witness_from_operations(
    inst: SynthesisInstance, operations: Sequence[Operation]
) -> Witness:
    """Build a full witness (with states) by running operations from the source."""
    states: List[Graph] = [inst.source]
    current = inst.source
    for op in operations:
        current = apply_operation(current, op, inst.designated)
        states.append(current)
    return Witness(tuple(operations), tuple(states))
