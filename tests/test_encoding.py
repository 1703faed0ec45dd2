"""CNF encoding of the operation relations and the unrolled reachability formula.

The exactness tests enumerate every assignment of the relevant variables and
compare against the plain graph semantics, so the encoder is checked against
an implementation that never touches CNF.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from gssynth.cnf import CnfFormula, SolveStatus, clause_satisfied, write_dimacs
from gssynth.driver import completeness_threshold
from gssynth.encoding import (
    KIND_CODE,
    StepLayout,
    SynthesisInstance,
    clause_bound,
    encode_bmc,
    encode_graph_constraint,
    encode_leq,
    encode_neq,
    encode_operation,
    encode_transition,
    selector_bits,
)
from gssynth.generators import erdos_renyi, ghz_target, random_D
from gssynth.graphs import (
    EF,
    ID,
    LC,
    VD,
    Graph,
    Operation,
    all_graphs,
    apply_operation,
    normalize_edge,
    pair_count,
    pair_index,
    pairs,
    star_graph,
)
from gssynth.oracle import reachable_bfs
from gssynth.solvers import InProcessSolver


def assignments_over(variables):
    """Every total assignment of the given variables."""
    variables = list(variables)
    for bits in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, bits))


def satisfies(clauses, assignment) -> bool:
    return all(clause_satisfied(clause, assignment) for clause in clauses)


def edge_var(layout: StepLayout, step: int, u: int, v: int) -> int:
    """Variable of the pair (u, v) in one state."""
    return layout.state_vars(step)[pair_index(layout.n, *normalize_edge(u, v))]


def graph_assignment(g: Graph, step: int, layout: StepLayout) -> dict:
    return {edge_var(layout, step, u, v): g.has_edge(u, v) for u, v in pairs(g.n)}


def register_assignment(variables, value: int) -> dict:
    return {var: bool(value >> j & 1) for j, var in enumerate(variables)}


# --- selector width ------------------------------------------------------------


def test_selector_bits():
    assert selector_bits(3, 0) == 2
    assert selector_bits(4, 0) == 3
    assert selector_bits(10, 5) == 4
    assert selector_bits(3, 7) == 3  # a large D can widen the register
    with pytest.raises(ValueError):
        selector_bits(0, 0)


# --- variable layout -------------------------------------------------------------


def test_layout_numbering_n4_d2():
    layout = StepLayout(4, 2)
    assert layout.pairs_per_state == 6
    assert layout.sel_bits == 3
    assert layout.selector_block == 5
    assert layout.total_vars == 17  # 12 edge vars + m + 2
    assert edge_var(layout, 0, 0, 1) == 1
    assert edge_var(layout, 0, 2, 3) == 6
    assert edge_var(layout, 1, 1, 0) == 7  # order of endpoints does not matter
    assert layout.state_vars(1) == [7, 8, 9, 10, 11, 12]
    assert layout.y_vars(0) == [13, 14, 15]
    assert layout.z_vars(0) == [16, 17]


def test_layout_blocks_are_disjoint_and_cover_the_range():
    layout = StepLayout(5, 3, num_designated=2)
    used = set()
    for step in range(layout.num_states):
        for u, v in pairs(5):
            used.add(edge_var(layout, step, u, v))
    for t in range(layout.num_transitions):
        used.update(layout.y_vars(t))
        used.update(layout.z_vars(t))
    assert used == set(range(1, layout.total_vars + 1))


def test_layout_rejects_bad_indices():
    layout = StepLayout(4, 2)
    with pytest.raises(ValueError):
        layout.state_vars(2)
    with pytest.raises(ValueError):
        layout.state_vars(-1)
    with pytest.raises(ValueError):
        layout.y_vars(1)
    with pytest.raises(ValueError):
        layout.z_vars(-1)
    with pytest.raises(ValueError):
        StepLayout(4, 0)
    for num_states in (0, 3):
        with pytest.raises(ValueError):
            layout.probe_assumptions(num_states)


def test_probe_assumptions_set_the_kind_bits_of_later_transitions():
    layout = StepLayout(4, 4)
    assert layout.probe_assumptions(4) == ()
    assert layout.probe_assumptions(2) == (*layout.z_vars(1), *layout.z_vars(2))
    assert layout.probe_assumptions(1) == tuple(v for t in range(3) for v in layout.z_vars(t))


# --- register constraints -----------------------------------------------------------


def test_encode_neq_pinned_shapes():
    assert encode_neq([1, 2, 3], 5) == [-1, 2, -3]
    assert encode_neq([1, 2, 3], 0) == [1, 2, 3]
    assert encode_neq([7], 1) == [-7]
    with pytest.raises(ValueError):
        encode_neq([1, 2], 4)


def test_encode_neq_excludes_exactly_the_value():
    for width in (1, 2, 3, 4):
        variables = list(range(1, width + 1))
        for value in range(1 << width):
            clause = encode_neq(variables, value)
            for reg in range(1 << width):
                assignment = register_assignment(variables, reg)
                assert clause_satisfied(clause, assignment) == (reg != value)


def test_encode_leq_pinned_shapes():
    assert encode_leq([1, 2, 3], 5) == [[-2, -3]]
    assert encode_leq([1, 2, 3], 7) == []
    assert encode_leq([1, 2, 3], 0) == [[-1], [-2], [-3]]
    with pytest.raises(ValueError):
        encode_leq([1, 2], -1)


def test_encode_leq_keeps_exactly_the_small_values():
    for width in (1, 2, 3, 4):
        variables = list(range(1, width + 1))
        for bound in range(1 << width):
            clauses = encode_leq(variables, bound)
            for reg in range(1 << width):
                assignment = register_assignment(variables, reg)
                assert satisfies(clauses, assignment) == (reg <= bound)


# --- state pinning ----------------------------------------------------------------


def test_graph_constraint_units():
    layout = StepLayout(3, 1)
    assert encode_graph_constraint(Graph(3), 0, layout) == [[-1], [-2], [-3]]
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert encode_graph_constraint(k3, 0, layout) == [[1], [2], [3]]


def test_graph_constraint_star_n4():
    layout = StepLayout(4, 1)
    star = star_graph(4, 0, (1, 2, 3))
    units = encode_graph_constraint(star, 0, layout)
    assert units == [[1], [2], [3], [-4], [-5], [-6]]


def test_graph_constraint_rejects_size_mismatch():
    with pytest.raises(ValueError):
        encode_graph_constraint(Graph(3), 0, StepLayout(4, 1))


# --- operation relations, checked exhaustively at n=3 -------------------------------


def relation_models(clauses, layout):
    """All (pre, post) graph pairs whose edge assignments satisfy the clauses."""
    found = set()
    for pre in all_graphs(layout.n):
        base = graph_assignment(pre, 0, layout)
        for post in all_graphs(layout.n):
            assignment = {**base, **graph_assignment(post, 1, layout)}
            if satisfies(clauses, assignment):
                found.add((pre, post))
    return found


# every operation a transition offers at n=3 with one designated pair
N3 = SynthesisInstance(Graph(3), Graph(3), ((0, 1),))
N3_LAYOUT = StepLayout(3, 2, num_designated=1)
N3_OPERATIONS = [
    *(Operation(kind, k) for k in range(3) for kind in (LC, VD)),
    Operation(EF, 0),
    Operation(ID, 0),
]


def assert_relation_is_exact(op):
    expected = {(g, apply_operation(g, op, N3.designated)) for g in all_graphs(3)}
    clauses = encode_operation(op, N3, 0, N3_LAYOUT)
    assert relation_models(clauses, N3_LAYOUT) == expected, op


def test_vd_relation_is_exact_for_every_vertex():
    for k in range(3):
        assert_relation_is_exact(Operation(VD, k))


def test_lc_relation_is_exact_for_every_vertex():
    for k in range(3):
        assert_relation_is_exact(Operation(LC, k))


def test_ef_relation_is_exact():
    assert_relation_is_exact(Operation(EF, 0))


def test_identity_relation_is_exact():
    assert_relation_is_exact(Operation(ID, 0))


@pytest.mark.parametrize(
    "op, count",
    [
        (Operation(VD, 0), 4),  # (n-1) units + 2*(C(n,2)-(n-1)) equivalences
        (Operation(LC, 2), 10),  # 6 per pair avoiding k, 2 per pair touching k
        (Operation(EF, 0), 6),  # 2 xor + 2 per copied pair
        (Operation(ID, 0), 6),  # 2 per copied pair
    ],
    ids=lambda value: value.kind if isinstance(value, Operation) else str(value),
)
def test_operation_clause_count(op, count):
    assert len(encode_operation(op, N3, 0, N3_LAYOUT)) == count


def test_encoder_does_not_use_the_graph_semantics(monkeypatch):
    # the exactness tests compare the encoder with these functions
    import gssynth.encoding
    import gssynth.graphs

    def refuse(*args):
        raise AssertionError("the encoder called the graph semantics")

    for name in ("apply_operation", "local_complement", "delete_vertex_edges", "flip_edge"):
        assert not hasattr(gssynth.encoding, name)
        monkeypatch.setattr(gssynth.graphs, name, refuse)
    for op in N3_OPERATIONS:
        encode_operation(op, N3, 0, N3_LAYOUT)
    encode_bmc(N3, 3)


def test_lc_clause_count_and_forcing():
    layout = N3_LAYOUT
    clauses = encode_operation(Operation(LC, 2), N3, 0, layout)
    assert len(clauses) == 10
    # x02 = x12 = true with x01 = false must force x'01 = true
    x01 = edge_var(layout, 0, 0, 1)
    x02 = edge_var(layout, 0, 0, 2)
    x12 = edge_var(layout, 0, 1, 2)
    post01 = edge_var(layout, 1, 0, 1)
    free = [v for v in range(1, 7) if v not in (x01, x02, x12)]
    for rest in assignments_over(free):
        assignment = {**rest, x01: False, x02: True, x12: True}
        if satisfies(clauses, assignment):
            assert assignment[post01]


def test_ef_xor_forces_the_flip():
    clauses = encode_operation(Operation(EF, 0), N3, 0, N3_LAYOUT)
    for pre, post in relation_models(clauses, N3_LAYOUT):
        assert pre.has_edge(0, 1) != post.has_edge(0, 1)


def test_identity_clauses_guarded_by_kind():
    # identity is picked by kind alone: its clauses are the only relation
    # clauses in a transition whose guard has no y literal
    layout = StepLayout(3, 2)
    y_vars = set(layout.y_vars(0))
    edge_vars = list(range(1, 7))
    clauses = [
        clause
        for clause in encode_transition(SynthesisInstance(Graph(3), Graph(3)), 0, layout)
        if not y_vars & {abs(lit) for lit in clause}
        and set(edge_vars) & {abs(lit) for lit in clause}
    ]
    assert len(clauses) == 6
    z0, z1 = layout.z_vars(0)
    for z_value in range(4):
        z_assign = register_assignment([z0, z1], z_value)
        for rest in assignments_over(edge_vars):
            assignment = {**rest, **z_assign}
            ok = satisfies(clauses, assignment)
            if z_value == KIND_CODE[ID]:
                copied = all(assignment[v] == assignment[v + 3] for v in (1, 2, 3))
                assert ok == copied
            else:
                assert ok  # vacuous when another kind is selected


# --- full transition relation ---------------------------------------------------------


def transition_ops(n: int, designated):
    """Semantic operation for every legal (y, z) selector value pair."""
    table = {}
    for k in range(n):
        table[(k, KIND_CODE[LC])] = Operation(LC, k)
        table[(k, KIND_CODE[VD])] = Operation(VD, k)
    for i in range(len(designated)):
        table[(i, KIND_CODE[EF])] = Operation(EF, i)
    table[(0, KIND_CODE[ID])] = Operation(ID, 0)
    return table


def transition_models(inst: SynthesisInstance, layout: StepLayout):
    """Every (pre, y, z, post) whose assignment satisfies transition 0's clauses."""
    clauses = encode_transition(inst, 0, layout)
    y = layout.y_vars(0)
    z = layout.z_vars(0)
    models = set()
    for pre in all_graphs(layout.n):
        base = graph_assignment(pre, 0, layout)
        for post in all_graphs(layout.n):
            edge_assign = {**base, **graph_assignment(post, 1, layout)}
            for y_value in range(1 << layout.sel_bits):
                for z_value in range(4):
                    assignment = {
                        **edge_assign,
                        **register_assignment(y, y_value),
                        **register_assignment(z, z_value),
                    }
                    if satisfies(clauses, assignment):
                        models.add((pre, y_value, z_value, post))
    return models


@pytest.mark.parametrize("designated", [(), ((0, 2),)], ids=["D0", "D1"])
def test_transition_models_project_onto_the_operation_relation(designated):
    # every legal selector applies to every graph exactly once, and nothing
    # else satisfies the transition; VD k is legal iff k is isolated in the
    # target or lies on a designated pair
    layout = StepLayout(3, 2, len(designated))
    on_pairs = {v for pair in designated for v in pair}
    deletable_counts = set()
    for target in all_graphs(3):
        touched = {w for u, v in pairs(3) if target.has_edge(u, v) for w in (u, v)}
        deletable = set(range(3)) - touched | on_pairs
        deletable_counts.add(len(deletable))
        legal = {
            selector: op
            for selector, op in transition_ops(3, designated).items()
            if op.kind != VD or op.arg in deletable
        }
        expected = {
            (g, y_value, z_value, apply_operation(g, op, designated))
            for g in all_graphs(3)
            for (y_value, z_value), op in legal.items()
        }
        inst = SynthesisInstance(Graph(3), target, designated)
        assert transition_models(inst, layout) == expected, target
    # the empty target leaves every vertex deletable; without pairs the path
    # and the triangle leave none
    assert deletable_counts == ({0, 1, 3} if not designated else {2, 3})


def test_transition_clause_counts_n3():
    inst0 = SynthesisInstance(Graph(3), Graph(3))
    layout0 = StepLayout(3, 2)
    # per vertex: LC 10 + VD 4; identity 6; selector domain 4
    assert len(encode_transition(inst0, 0, layout0)) == 3 * 14 + 6 + 4
    # target edge 01: VD keeps its relation at 2 only, 0 and 1 get their guard alone
    inst01 = SynthesisInstance(Graph(3), Graph.from_edges(3, [(0, 1)]))
    assert len(encode_transition(inst01, 0, layout0)) == 3 * 10 + 4 + 2 + 6 + 4
    # a triangle target leaves no vertex deletable: one clause outlaws VD
    triangle = SynthesisInstance(Graph(3), Graph(3, 0b111))
    assert len(encode_transition(triangle, 0, layout0)) == 3 * 10 + 1 + 6 + 4

    inst1 = SynthesisInstance(Graph(3), Graph(3), ((0, 1),))
    layout1 = StepLayout(3, 2, 1)
    # adds 6 EF clauses and one extra y-range clause pair for z=2
    assert len(encode_transition(inst1, 0, layout1)) == 3 * 14 + 6 + 6 + 5


def test_later_transitions_renumber_transition_zero():
    # transition t is transition 0 with every edge variable moved t states on
    # and every selector variable moved t selector blocks on
    inst = SynthesisInstance(Graph(4), Graph(4), ((0, 2), (1, 3)))
    layout = StepLayout(4, 4, num_designated=2)
    first_selector = layout.num_states * layout.pairs_per_state + 1
    first = encode_transition(inst, 0, layout)
    for t in (1, 2):

        def moved(lit: int) -> int:
            var = abs(lit)
            var += t * (layout.selector_block if var >= first_selector else layout.pairs_per_state)
            return var if lit > 0 else -var

        assert encode_transition(inst, t, layout) == [[moved(lit) for lit in c] for c in first]


def reference_bmc_clauses(inst: SynthesisInstance, num_states: int):
    """The whole formula with every transition built by encode_transition."""
    layout = StepLayout(inst.n, num_states, len(inst.designated))
    clauses = encode_graph_constraint(inst.source, 0, layout)
    for t in range(layout.num_transitions):
        clauses += encode_transition(inst, t, layout)
    return clauses + encode_graph_constraint(inst.target, num_states - 1, layout)


# n = 1 has no pairs and n = 2 one; n = 16 has 5-bit selectors; n = 17 is the
# paper's largest size
BMC_GRID = [(n, {0, 1, n * (n - 1) // 4}, range(1, 5)) for n in range(1, 7)]
BMC_GRID += [(16, {2}, (3,)), (17, {2}, (3,))]


def grid_id(value):
    return str(value) if isinstance(value, int) else None


@pytest.mark.parametrize("n, sizes, state_counts", BMC_GRID, ids=grid_id)
def test_bmc_matches_the_transition_by_transition_reference(n, sizes, state_counts):
    # encode_bmc builds only transition 0 and appends shifted copies for the others
    rng = random.Random(n)
    for size in sorted(size for size in sizes if size <= pair_count(n)):
        source = Graph(n, rng.getrandbits(pair_count(n)))
        target = Graph(n, rng.getrandbits(pair_count(n)))
        inst = SynthesisInstance(source, target, random_D(n, size, n + size))
        for num_states in state_counts:
            formula, layout = encode_bmc(inst, num_states)
            assert formula.num_vars == layout.total_vars
            expected = reference_bmc_clauses(inst, num_states)
            assert [list(c) for c in formula.clauses] == expected, (size, num_states)


@pytest.mark.parametrize("n, sizes, state_counts", BMC_GRID, ids=grid_id)
def test_every_clause_lists_its_variables_in_ascending_order(n, sizes, state_counts):
    # the builtin watches each clause's first two literals as the encoder writes them
    rng = random.Random(n)
    for size in sorted(size for size in sizes if size <= pair_count(n)):
        for target_bits in (0, rng.getrandbits(pair_count(n)), (1 << pair_count(n)) - 1):
            source = Graph(n, rng.getrandbits(pair_count(n)))
            inst = SynthesisInstance(source, Graph(n, target_bits), random_D(n, size, n + size))
            for num_states in state_counts:
                for clause in encode_bmc(inst, num_states)[0].clauses:
                    variables = [abs(lit) for lit in clause]
                    assert all(map(int.__lt__, variables, variables[1:])), list(clause)


# --- whole formula ------------------------------------------------------------------


def test_bmc_single_state_matches_the_equality_semantics():
    star = star_graph(4, 0, (1, 2, 3))
    formula, _ = encode_bmc(SynthesisInstance(star, star), 1)
    assert formula.num_vars == 6
    assert len(formula.clauses) == 12  # the source units, then the target units
    assert InProcessSolver().solve(formula).status is SolveStatus.SAT

    formula, _ = encode_bmc(SynthesisInstance(star, Graph(4)), 1)
    assert InProcessSolver().solve(formula).status is SolveStatus.UNSAT


def test_bmc_star_to_complete_is_sat_at_two_states():
    star = star_graph(4, 0, (1, 2, 3))
    k4 = Graph(4, (1 << pair_count(4)) - 1)
    formula, layout = encode_bmc(SynthesisInstance(star, k4), 2)
    assert formula.num_vars == layout.total_vars == 17
    result = InProcessSolver().solve(formula)
    assert result.status is SolveStatus.SAT


def test_bmc_variable_ids_stay_in_range():
    inst = SynthesisInstance(Graph(5), star_graph(5, 0, (1, 2)), ((1, 4),))
    for num_states in (1, 2, 4):
        formula, layout = encode_bmc(inst, num_states)
        assert formula.num_vars == layout.total_vars
        peak = max(abs(lit) for clause in formula.clauses for lit in clause)
        assert peak <= layout.total_vars


def test_bmc_dimacs_bytes_are_pinned():
    """The formulas' DIMACS text, byte for byte, at threshold + 1 for n = 5..8.

    The digest moved from 1beeaa76... when the encoder began writing each
    clause in ascending variable order; the new one equals that of the old
    formulas with each clause's literals sorted by variable.
    """
    digest = hashlib.sha256()
    for n in range(5, 9):
        designated = random_D(n, 2, 1) if n % 2 else ()
        inst = SynthesisInstance(erdos_renyi(n, 0.8, 0), ghz_target(n, range(4)), designated)
        top = completeness_threshold(inst).max_transitions + 1
        digest.update(write_dimacs(encode_bmc(inst, top)[0]).encode())
    assert digest.hexdigest() == "de99b8b95c0ad4c590d0f08f3d54670c1aa4b76dd61b478662be4a8601c77ba8"


def test_bmc_agrees_with_oracle_shortest_lengths():
    # SAT at d states must mean a path of at most d-1 operations and vice versa
    rng = random.Random(11)
    solver = InProcessSolver()
    for n in (3, 4, 5):
        for _ in range(4):
            source = Graph(n, rng.getrandbits(pair_count(n)))
            target = Graph(n, rng.getrandbits(pair_count(n)))
            designated = ((0, 1),) if rng.random() < 0.5 else ()
            inst = SynthesisInstance(source, target, designated)
            shortest = reachable_bfs(inst).shortest_length
            for num_states in (1, 2, 3, 4):
                formula, _ = encode_bmc(inst, num_states)
                status = solver.solve(formula).status
                expected = shortest is not None and shortest <= num_states - 1
                assert status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)


# --- size bound ------------------------------------------------------------------


def test_clause_bound_values():
    bound = clause_bound(4, 0)
    assert bound.variables == 17
    assert bound.clauses == 328.0
    assert clause_bound(2, 0).clauses == 46.0  # 28 + 16 + 2 with m=2


def test_clause_bound_holds_for_actual_transitions():
    for n in range(2, 7):
        for num_designated in (0, n // 2):
            designated = tuple(pairs(n)[:num_designated])
            inst = SynthesisInstance(Graph(n), Graph(n), designated)
            layout = StepLayout(n, 2, num_designated)
            bound = clause_bound(n, num_designated)
            assert len(encode_transition(inst, 0, layout)) <= bound.clauses
            assert 2 * layout.pairs_per_state + layout.selector_block == bound.variables


def test_clause_bound_monotone_in_designated_pairs():
    for n in (3, 5, 8):
        for size in range(0, 6):
            assert clause_bound(n, size).clauses <= clause_bound(n, size + 1).clauses
