"""CNF encoding of bounded reachability between graph states.

An unrolling with `num_states` states lays out variables as follows (DIMACS
variables are 1-based):

* one edge variable per vertex pair per state, state-major in lexicographic
  pair order: state s occupies variables s*P+1 .. (s+1)*P where P = n(n-1)/2;
* per transition t (between states t and t+1), a selector block after all the
  edge variables: `sel_bits` y-bits choosing the operation argument, then two
  z-bits choosing the operation kind, both least-significant-bit first.

Kinds: z=0 local complementation, z=1 vertex deletion, z=2 edge flip of the
y-th designated pair, z=3 identity.

One relation builder, `encode_operation`, turns any operation into clauses
over the edge variables of two consecutive states: each pair is cleared,
toggled, toggled under a condition, or copied.  A transition conjoins the
relation of every operation it offers, widened by one guard rule: a clause c
of the relation for argument k and kind val becomes c + neq(y, k) + neq(z,
val), so the relation only bites when the selectors pick it; identity is picked
by its kind alone, so its guard drops the y part.  It offers LC at each
vertex, EF at each designated pair, identity, and VD only at the vertices
that are isolated in the target or lie on a designated pair: a deleted vertex
stays isolated under LC and VD, and only an edge flip can re-attach it, so
deleting any other vertex strands an edge of the target.  VD at the other
vertices is outlawed by its guard alone as a clause (or by neq(z, 1) when no
vertex is deletable), which removes no sequence that reaches the target.  A
domain constraint keeps the selectors meaningful: z in {0,1} forces y < n,
z=2 forces y < |D| (or is forbidden outright when D is empty), z=3 forces
y = 0.

The full formula conjoins unit clauses pinning state 0 to the source graph,
all transitions, and unit clauses pinning the last state to the target.  With
the identity available, satisfiability is monotone in the number of states, so
the formula is satisfiable iff the target is reachable in at most
num_states - 1 operations.

Every transition carries the same relation over its own variables, so
`encode_bmc` builds only transition 0 with `encode_transition` and appends
each later transition t as a shifted copy of transition 0's literals: edge
variables move t*P on, selector variables t selector blocks on
(`CnfFormula.add_shifted`, one big-integer addition per copy).  The clauses
are exactly those `encode_transition(inst, t, layout)` would build.

Every clause lists its literals in strictly ascending variable order, each
variable once.  The builders write them so (pre-state edges, then post-state
edges, then y bits, then z bits), and `add_shifted` keeps the order, since it
moves both states of a transition by P and its selectors by one block, and
every edge variable lies below every selector variable.  The builtin solver
watches each clause's first two literals as given, so this order fixes its
search, and it is the order `gssynth encode` writes each DIMACS clause in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

from .cnf import Clause, CnfFormula
# SynthesisInstance lives in graphs; it stays importable from here too
from .graphs import (
    EF, ID, LC, VD, Graph, Operation, SynthesisInstance, isolated_vertices, normalize_edge,
    pair_count, pair_index, pairs,
)

# value of the z register that selects each operation kind
KIND_CODE = {LC: 0, VD: 1, EF: 2, ID: 3}


def selector_bits(n: int, num_designated: int) -> int:
    """Width of the y register: enough bits for any vertex or designated index.

    Equals ceil(log2(max(n, |D|) + 1)).
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    return max(n, num_designated).bit_length()


@dataclass(frozen=True)
class StepLayout:
    """Variable numbering for one unrolling."""

    n: int
    num_states: int
    num_designated: int = 0

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ValueError("need at least one state")

    @property
    def pairs_per_state(self) -> int:
        return pair_count(self.n)

    @property
    def sel_bits(self) -> int:
        return selector_bits(self.n, self.num_designated)

    @property
    def num_transitions(self) -> int:
        return self.num_states - 1

    @property
    def selector_block(self) -> int:
        """Variables per transition selector block (y bits plus two z bits)."""
        return self.sel_bits + 2

    @property
    def total_vars(self) -> int:
        return self.num_states * self.pairs_per_state + self.num_transitions * self.selector_block

    def state_vars(self, step: int) -> List[int]:
        """Edge variables of one state, in lexicographic pair order."""
        if not 0 <= step < self.num_states:
            raise ValueError(f"step {step} out of range")
        first = 1 + step * self.pairs_per_state
        return list(range(first, first + self.pairs_per_state))

    def _selector_base(self, transition: int) -> int:
        if not 0 <= transition < self.num_transitions:
            raise ValueError(f"transition {transition} out of range")
        return self.num_states * self.pairs_per_state + transition * self.selector_block

    def y_vars(self, transition: int) -> List[int]:
        base = self._selector_base(transition)
        return [base + 1 + j for j in range(self.sel_bits)]

    def z_vars(self, transition: int) -> List[int]:
        base = self._selector_base(transition) + self.sel_bits
        return [base + 1, base + 2]

    def probe_assumptions(self, num_states: int) -> Tuple[int, ...]:
        """Assumptions under which this unrolling answers at num_states states.

        They set both kind bits of transitions num_states-1 onward, so those
        steps are identities (the selector domain forces y = 0 there) and the
        target units pin state num_states-1.
        """
        if not 1 <= num_states <= self.num_states:
            raise ValueError(f"probe at {num_states} states out of range")
        identities = range(num_states - 1, self.num_transitions)
        return tuple(var for t in identities for var in self.z_vars(t))


# --- primitive clause builders ------------------------------------------------


def encode_neq(variables: Sequence[int], value: int) -> Clause:
    """One clause forcing the register (LSB first) to differ from value."""
    if not 0 <= value < 1 << len(variables):
        raise ValueError(f"value {value} out of range for {len(variables)} bits")
    return [-var if value >> j & 1 else var for j, var in enumerate(variables)]


def encode_leq(variables: Sequence[int], bound: int) -> List[Clause]:
    """Clauses forcing the register (LSB first) to be at most bound."""
    if not 0 <= bound < 1 << len(variables):
        raise ValueError(f"bound {bound} out of range for {len(variables)} bits")
    clauses: List[Clause] = []
    for j, var in enumerate(variables):
        if bound >> j & 1:
            continue
        clause = [-var]
        clause.extend(
            -variables[i] for i in range(j + 1, len(variables)) if bound >> i & 1
        )
        clauses.append(clause)
    return clauses


def encode_graph_constraint(g: Graph, step: int, layout: StepLayout) -> List[Clause]:
    """Unit clauses pinning one state to a concrete graph."""
    if g.n != layout.n:
        raise ValueError("graph size does not match layout")
    return [[var] if g.bits >> i & 1 else [-var] for i, var in enumerate(layout.state_vars(step))]


# --- operation relations ------------------------------------------------------


def encode_operation(
    op: Operation, inst: SynthesisInstance, transition: int, layout: StepLayout
) -> List[Clause]:
    """Unguarded relation of one operation between states t and t+1.

    Each pair (u, v) with pre-state variable a and post-state variable b gets
    one clause shape:

    * clear, for VD at k on pairs touching k: not b;
    * toggle, for EF on its designated pair: b = not a;
    * conditional toggle, for LC at k on pairs avoiding k: b = a xor (uk and vk),
      where uk and vk are the pre-state variables of (u, k) and (v, k);
    * copy, for every other pair: b = a.

    Each clause lists its literals in ascending variable order.
    """
    n = layout.n
    pre = layout.state_vars(transition)
    post = layout.state_vars(transition + 1)
    k = op.arg
    if op.kind == LC:
        # at_k[w] is the pre-state variable of the pair (w, k)
        at_k = [pre[pair_index(n, *normalize_edge(w, k))] if w != k else 0 for w in range(n)]
    flip = inst.designated[k] if op.kind == EF else None
    clauses: List[Clause] = []
    for (u, v), a, b in zip(pairs(n), pre, post):
        if op.kind == VD and k in (u, v):
            clauses.append([-b])
        elif (u, v) == flip:
            clauses += [[a, b], [-a, -b]]
        elif op.kind == LC and k not in (u, v):
            # uk < vk < b always, and a comes after uk iff k < v, after vk iff k < u
            uk, vk = at_k[u], at_k[v]
            if k < u:
                clauses += [[-uk, -vk, a, b], [-uk, -vk, -a, -b], [uk, -a, b], [vk, -a, b]]
                clauses += [[uk, a, -b], [vk, a, -b]]
            elif k < v:
                clauses += [[-uk, a, -vk, b], [-uk, -a, -vk, -b], [uk, -a, b], [-a, vk, b]]
                clauses += [[uk, a, -b], [a, vk, -b]]
            else:
                clauses += [[a, -uk, -vk, b], [-a, -uk, -vk, -b], [-a, uk, b], [-a, vk, b]]
                clauses += [[a, uk, -b], [a, vk, -b]]
        else:
            clauses += [[-a, b], [a, -b]]
    return clauses


def _selector_domain(transition: int, layout: StepLayout) -> List[Clause]:
    """Constrain selectors to meaningful values.

    z in {0,1} implies y < n; z = 2 implies y < |D| (z=2 outlawed entirely when
    no pairs are designated); z = 3 implies y = 0 so padded steps decode
    uniquely.
    """
    y = layout.y_vars(transition)
    z0, z1 = layout.z_vars(transition)
    clauses: List[Clause] = []
    # z1 true covers both z=2 and z=3, so appending z1 limits the scope of the
    # y-bound to z in {0,1}
    for clause in encode_leq(y, layout.n - 1):
        clauses.append([*clause, z1])
    if layout.num_designated > 0:
        for clause in encode_leq(y, layout.num_designated - 1):
            clauses.append([*clause, z0, -z1])
    else:
        clauses.append([z0, -z1])
    for var in y:
        clauses.append([-var, -z0, -z1])
    return clauses


def encode_transition(
    inst: SynthesisInstance, transition: int, layout: StepLayout
) -> List[Clause]:
    """Every operation's relation between states t and t+1, widened by its guard.

    The guard of an operation is neq(y, arg) + neq(z, code); identity is
    selected by its kind alone, so its guard drops the y part.  VD is offered
    only at vertices isolated in the target or on a designated pair (see the
    module docstring); at any other vertex its guard alone is a clause, and
    when no vertex is deletable the one clause neq(z, VD) replaces those.
    """
    t = transition
    y = layout.y_vars(t)
    z = layout.z_vars(t)
    deletable = isolated_vertices(inst.target).union(*inst.designated)
    operations = [Operation(kind, k) for k in range(layout.n) for kind in (LC, VD)]
    operations += [Operation(EF, i) for i in range(len(inst.designated))]
    operations.append(Operation(ID, 0))
    clauses: List[Clause] = []
    for op in operations:
        guard = encode_neq(z, KIND_CODE[op.kind])
        if op.kind != ID:
            guard = encode_neq(y, op.arg) + guard
        if op.kind == VD and op.arg not in deletable:
            if deletable:
                clauses.append(guard)
            continue
        clauses.extend(clause + guard for clause in encode_operation(op, inst, t, layout))
    if not deletable:
        clauses.append(encode_neq(z, KIND_CODE[VD]))
    clauses.extend(_selector_domain(t, layout))
    return clauses


# --- whole-instance encoding ---------------------------------------------------


def encode_bmc(inst: SynthesisInstance, num_states: int) -> Tuple[CnfFormula, StepLayout]:
    """Reachability formula: SAT iff target reachable in <= num_states - 1 ops.

    With a single state there are no transitions and both unit sets pin state
    0, so the formula is satisfiable exactly when source equals target.
    """
    layout = StepLayout(inst.n, num_states, len(inst.designated))
    formula = CnfFormula(layout.total_vars)
    formula.add_clauses(encode_graph_constraint(inst.source, 0, layout))
    if layout.num_transitions:
        first = len(formula.clauses)
        formula.add_clauses(encode_transition(inst, 0, layout))
        end = len(formula.clauses)
        # transition t is transition 0 with each of its variables t steps on
        shifts = [0] * (layout.total_vars + 1)
        for var in layout.state_vars(0) + layout.state_vars(1):
            shifts[var] = layout.pairs_per_state
        for var in layout.y_vars(0) + layout.z_vars(0):
            shifts[var] = layout.selector_block
        formula.add_shifted(first, end, shifts, layout.num_transitions - 1)
    formula.add_clauses(encode_graph_constraint(inst.target, num_states - 1, layout))
    return formula, layout


class TransitionBound(NamedTuple):
    variables: int
    clauses: float


def clause_bound(n: int, num_designated: int) -> TransitionBound:
    """Closed-form per-transition size: exact variable count, clause ceiling.

    Variables: n(n-1) edge variables across the two states plus the m-bit
    argument register and 2 kind bits.  Clauses: 3.5*n^3 + 2*m*n^2 + 0.5*n^2
    + 0.5*|D|*n^2, loose for small n; holds across the supported sizes.
    """
    m = selector_bits(n, num_designated)
    clauses = 3.5 * n**3 + 2 * m * n**2 + 0.5 * n**2 + 0.5 * num_designated * n**2
    return TransitionBound(n * (n - 1) + m + 2, clauses)


# --- layout sidecar format ------------------------------------------------------
#
# A small key-value text file describing the variable layout of an emitted
# DIMACS file, so other tools can decode models without this package.


def layout_to_text(layout: StepLayout) -> str:
    lines = [
        f"n {layout.n}",
        f"num_states {layout.num_states}",
        f"num_designated {layout.num_designated}",
        f"sel_bits {layout.sel_bits}",
        f"pairs_per_state {layout.pairs_per_state}",
        "edge_vars_start 1",
        f"selector_vars_start {layout.num_states * layout.pairs_per_state + 1}",
        f"selector_block {layout.selector_block}",
        f"total_vars {layout.total_vars}",
    ]
    return "\n".join(lines) + "\n"
