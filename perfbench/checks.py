"""Output checks of the benchmark, made apart from the code they check.

* Sweep verdicts are compared with the breadth-first oracle, which never
  touches the encoder or a solver.
* Witnesses are replayed here with `graphs.apply_operation`, not with
  `witness.replay_verify`, so a fault in the replay layer cannot pass itself.
* Formulas are evaluated clause by clause under the assignment that a known
  operation sequence induces.  The variable numbering is rebuilt here from the
  layout documented in `gssynth.encoding`, not taken from `StepLayout`.

Every check returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from gssynth.encoding import clause_bound
from gssynth.graphs import ID, LC, VD, apply_operation

# kind codes of the selector's z register, as documented in gssynth.encoding
_KIND_CODE = {LC: 0, VD: 1, ID: 3}


def _isolated(g) -> Set[int]:
    touched = {v for edge in g.edges() for v in edge}
    return set(range(g.n)) - touched


def threshold_transitions(inst) -> int:
    """Completeness threshold 3(n - n mod 2)/2 plus the forced deletions."""
    n = inst.n
    return 3 * (n - n % 2) // 2 + len(_isolated(inst.target) - _isolated(inst.source))


def replay_error(inst, witness) -> Optional[str]:
    """Replay the witness from the source; None when it reaches the target."""
    if witness.states[0] != inst.source:
        return "witness does not start at the source"
    current = inst.source
    for step, (op, claimed) in enumerate(zip(witness.operations, witness.states[1:])):
        try:
            current = apply_operation(current, op, inst.designated)
        except ValueError as exc:
            return f"step {step} ({op}) does not apply: {exc}"
        if current != claimed:
            return f"step {step} ({op}) does not give the state the witness claims"
    if current != inst.target:
        return "witness does not end at the target"
    return None


def sweep_error(inst, outcome, oracle, max_operations: Optional[int]) -> Optional[str]:
    """Check one settled sweep instance against the oracle.

    `max_operations` is None for instances without designated pairs, whose
    unreachable verdicts must rest on UNSAT at the completeness threshold, and
    the search cap otherwise, beyond which the answer must be `unknown`.
    """
    verdict = outcome.verdict.value
    within_cap = oracle.reachable and (
        max_operations is None or oracle.shortest_length <= max_operations
    )
    if within_cap:
        if verdict != "reachable":
            return f"verdict {verdict}, but the oracle has {oracle.shortest_length} operations"
        if outcome.witness is None:
            return "reachable without a witness"
        error = replay_error(inst, outcome.witness)
        if error is not None:
            return error
        if len(outcome.witness.operations) != oracle.shortest_length:
            return (
                f"witness has {len(outcome.witness.operations)} operations, "
                f"the shortest has {oracle.shortest_length}"
            )
        if not outcome.minimal:
            return "shortest witness not marked minimal"
        return None
    if max_operations is not None:
        if verdict != "unknown":
            return f"verdict {verdict} on an instance not reachable within {max_operations}"
        return None
    if verdict != "unreachable":
        return f"verdict {verdict} on an unreachable instance"
    if not outcome.probes:
        if not _isolated(inst.source) - _isolated(inst.target):
            return "unreachable without a probe or a stuck isolated vertex"
        return None
    top = outcome.probes[0]
    expected = threshold_transitions(inst) + 1
    if len(outcome.probes) != 1 or top.num_states != expected or top.status.value != "unsat":
        return f"unreachable not settled by one UNSAT probe at {expected} states"
    return None


# --- formulas --------------------------------------------------------------------


def _selector_width(n: int) -> int:
    """Bits of the argument register: enough to write n (no designated pairs)."""
    width = 0
    while 1 << width <= n:
        width += 1
    return width


def known_literals(n: int, num_states: int, states: Sequence, operations: Sequence) -> List[int]:
    """Literals true under the model that a known operation sequence induces.

    `states` holds the graph before each operation and after the last one;
    steps beyond the sequence are identity padding.
    """
    pair_total = n * (n - 1) // 2
    width = _selector_width(n)
    literals: List[int] = []
    for s in range(num_states):
        bits = states[min(s, len(states) - 1)].bits
        base = s * pair_total
        for i in range(pair_total):
            literals.append(base + i + 1 if bits >> i & 1 else -(base + i + 1))
    for t in range(num_states - 1):
        if t < len(operations):
            kind, arg = _KIND_CODE[operations[t].kind], operations[t].arg
        else:
            kind, arg = _KIND_CODE[ID], 0
        base = num_states * pair_total + t * (width + 2)
        for j in range(width):
            var = base + 1 + j
            literals.append(var if arg >> j & 1 else -var)
        for j in range(2):
            var = base + width + 1 + j
            literals.append(var if kind >> j & 1 else -var)
    return literals


def formula_error(
    inst, operations: Sequence, states: Sequence, num_states: int, formula
) -> Optional[str]:
    """Check the size and the meaning of one reachability formula (no designated pairs).

    The formula must be satisfied by the known sequence, falsified once one
    target edge bit is flipped, have the closed-form variable count, and stay
    within the clause bound.
    """
    n = inst.n
    pair_total = n * (n - 1) // 2
    transitions = num_states - 1
    expected_vars = num_states * pair_total + transitions * (_selector_width(n) + 2)
    if formula.num_vars != expected_vars:
        return f"{formula.num_vars} variables, the closed form gives {expected_vars}"
    ceiling = 2 * pair_total + transitions * clause_bound(n, 0).clauses
    if len(formula.clauses) > ceiling:
        return f"{len(formula.clauses)} clauses, above the bound {ceiling:.0f}"
    true = set(known_literals(n, num_states, states, operations))
    if len(true) != expected_vars:
        return "known assignment does not cover every variable"
    for index, clause in enumerate(formula.clauses):
        if true.isdisjoint(clause):
            return f"clause {index} is falsified by the known operation sequence"
    flip = (num_states - 1) * pair_total + 1  # target state, first pair
    literal = flip if flip in true else -flip
    true.discard(literal)
    true.add(-literal)
    if not any(
        (flip in clause or -flip in clause) and true.isdisjoint(clause)
        for clause in formula.clauses
    ):
        return "formula still satisfied with a target edge bit flipped"
    return None


def dimacs_error(formula, text: str) -> Optional[str]:
    """Check the DIMACS header and that there is one terminated line per clause."""
    header, _, body = text.partition("\n")
    expected = f"p cnf {formula.num_vars} {len(formula.clauses)}"
    if header != expected:
        return f"DIMACS header {header!r}, expected {expected!r}"
    lines = body.count("\n")
    if lines != len(formula.clauses) or body.count(" 0\n") != lines or not body.endswith("\n"):
        return f"DIMACS body has {lines} lines for {len(formula.clauses)} clauses"
    return None
