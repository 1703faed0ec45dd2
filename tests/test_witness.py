"""Witness decoding, replay checking, and serialization."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from gssynth.cnf import SolveStatus
from gssynth.driver import Limits, synthesize
from gssynth.encoding import StepLayout, SynthesisInstance, encode_bmc
from gssynth.generators import erdos_renyi, ghz_target, random_D, secret_sharing_demo
from gssynth.graphs import (
    EF,
    ID,
    LC,
    VD,
    Graph,
    Operation,
    pair_count,
    star_graph,
)
from gssynth.solvers import InProcessSolver
from gssynth.witness import (
    Witness,
    decode,
    operations_from_text,
    replay,
    replay_verify,
    witness_to_text,
)


def complete_graph(n: int) -> Graph:
    return Graph(n, (1 << pair_count(n)) - 1)


STAR4 = star_graph(4, 0, (1, 2, 3))


def solve_and_decode(inst: SynthesisInstance, num_states: int) -> Witness:
    formula, layout = encode_bmc(inst, num_states)
    result = InProcessSolver().solve(formula)
    assert result.status is SolveStatus.SAT
    assert result.assignment is not None
    return decode(result.assignment, layout)


# --- structure -------------------------------------------------------------------


def test_witness_needs_one_more_state_than_operations():
    with pytest.raises(ValueError):
        Witness((Operation(LC, 0),), (STAR4,))
    w = Witness((), (STAR4,))
    assert w.states[0] == w.final == STAR4
    assert w.operations == ()


# --- decoding -------------------------------------------------------------------


def test_decode_star_to_complete_model():
    inst = SynthesisInstance(STAR4, complete_graph(4))
    witness = solve_and_decode(inst, 2)
    assert witness.states == (STAR4, complete_graph(4))
    assert witness.operations == (Operation(LC, 0),)


def test_decode_single_state_model():
    inst = SynthesisInstance(STAR4, STAR4)
    witness = solve_and_decode(inst, 1)
    assert witness.operations == ()
    assert witness.states == (STAR4,)


def test_decode_keeps_padding_and_replays():
    # source == target at three states: the model may pad with identities,
    # which decode drops, or apply an operation and undo it; either way the
    # decoded witness replays
    inst = SynthesisInstance(STAR4, STAR4)
    witness = solve_and_decode(inst, 3)
    assert len(witness.operations) <= 2
    assert witness.states[0] == witness.final == STAR4
    assert replay_verify(inst, witness).ok


def test_decode_register_order_is_lsb_first():
    layout = StepLayout(3, 2)
    assignment = {v: False for v in range(1, layout.total_vars + 1)}
    # y = 2 (bit 1 set), z = 1 (bit 0 set) selects VD at vertex 2
    assignment[layout.y_vars(0)[1]] = True
    assignment[layout.z_vars(0)[0]] = True
    witness = decode(assignment, layout)
    assert witness.operations == (Operation(VD, 2),)


def test_decode_drops_identity_steps_with_their_states():
    # LC 0, ID, VD 2 from the star: K4, K4 again, then K4 without vertex 2
    k4_minus_2 = Graph.from_edges(4, [(0, 1), (0, 3), (1, 3)])
    states = (STAR4, complete_graph(4), complete_graph(4), k4_minus_2)
    selectors = ((0, 0), (0, 3), (2, 1))  # (y, z): LC = 0, ID = 3, VD = 1
    layout = StepLayout(4, len(states))
    assignment = {}
    for step, g in enumerate(states):
        for i, var in enumerate(layout.state_vars(step)):
            assignment[var] = bool(g.bits >> i & 1)
    for t, (y, z) in enumerate(selectors):
        for j, var in enumerate(layout.y_vars(t)):
            assignment[var] = bool(y >> j & 1)
        for j, var in enumerate(layout.z_vars(t)):
            assignment[var] = bool(z >> j & 1)
    witness = decode(assignment, layout)
    assert witness.operations == (Operation(LC, 0), Operation(VD, 2))
    assert witness.states == (STAR4, complete_graph(4), k4_minus_2)


# --- replay ----------------------------------------------------------------------


def test_replay_accepts_the_star_chain():
    inst = SynthesisInstance(STAR4, complete_graph(4))
    witness = replay(inst, (Operation(LC, 0),))
    assert replay_verify(inst, witness).ok

    k4_minus = Graph.from_edges(4, [(0, 1), (0, 3), (1, 3)])
    inst2 = SynthesisInstance(complete_graph(4), k4_minus)
    witness2 = replay(inst2, (Operation(VD, 2),))
    assert replay_verify(inst2, witness2).ok


def test_replay_builds_the_state_trace():
    inst = SynthesisInstance(STAR4, Graph(4))
    witness = replay(inst, (Operation(LC, 0), Operation(VD, 0)))
    assert witness.states[0] == STAR4
    assert witness.states[1] == complete_graph(4)
    # deleting the old center from the complete graph leaves a triangle
    assert witness.states[2] == Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)])


def test_replay_rejects_the_wrong_vertex():
    inst = SynthesisInstance(STAR4, complete_graph(4))
    # LC at a leaf toggles nothing, so the final state is still the star
    bogus = Witness((Operation(LC, 1),), (STAR4, complete_graph(4)))
    report = replay_verify(inst, bogus)
    assert not report.ok
    assert report.message.startswith("step 0:")


def test_replay_rejects_a_wrong_middle_state_at_the_right_end():
    # LC 0 twice takes the star to K4 and back; a witness that claims some
    # other graph in the middle still ends at the target, and must be refused
    inst = SynthesisInstance(STAR4, STAR4)
    bogus = Witness((Operation(LC, 0), Operation(LC, 0)), (STAR4, Graph(4), STAR4))
    report = replay_verify(inst, bogus)
    assert not report.ok
    assert report.message.startswith("step 0:")


def test_replay_rejects_wrong_endpoints():
    inst = SynthesisInstance(STAR4, complete_graph(4))
    wrong_start = Witness((), (complete_graph(4),))
    assert not replay_verify(inst, wrong_start).ok
    wrong_end = Witness((), (STAR4,))
    report = replay_verify(inst, wrong_end)
    assert not report.ok
    assert "end" in report.message


def test_replay_rejects_ef_outside_designated_set():
    inst = SynthesisInstance(Graph(3), Graph.from_edges(3, [(0, 1)]))
    bogus = Witness((Operation(EF, 0),), (Graph(3), Graph.from_edges(3, [(0, 1)])))
    report = replay_verify(inst, bogus)
    assert not report.ok
    assert report.message.startswith("step 0:")
    with pytest.raises(ValueError, match="step 0"):
        replay(inst, bogus.operations)


def test_synthesized_witnesses_are_pinned():
    """Every witness `synthesize` reports, with its states and `minimal`, on a
    fixed set of runs: the instances of `test_builtin_search_is_pinned`.

    A rewrite of the witness path must leave this digest as it is.
    """
    runs = []
    for n, p, seed, d_size in itertools.product((3, 4), (0.3, 0.5, 0.8), range(4), (0, 2)):
        designated = random_D(n, d_size, seed + 1) if d_size else ()
        target = ghz_target(n, range(min(4, n)))
        inst = SynthesisInstance(erdos_renyi(n, p, seed), target, designated)
        runs.append((inst, Limits(max_operations=8) if d_size else Limits()))
    runs.append((secret_sharing_demo(), Limits()))
    rows = []
    for inst, limits in runs:
        outcome = synthesize(inst, InProcessSolver(), limits)
        witness = outcome.witness
        rows.append([
            None if witness is None else [
                witness_to_text(witness.operations, inst.designated),
                [state.bits for state in witness.states],
            ],
            outcome.minimal,
        ])
    assert sum(row[0] is not None for row in rows) == 29
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "874a4ebc5cc91237b18ad9645c0feafa39976a25fd24e7448f64bc7084921ad0"


# --- text format -------------------------------------------------------------------


def test_witness_text_round_trip_with_designated_pairs():
    designated = ((0, 2), (1, 3))
    ops = (Operation(EF, 0), Operation(LC, 2), Operation(VD, 1), Operation(ID, 0))
    text = witness_to_text(ops, designated)
    assert text == "EF 0 2\nLC 2\nVD 1\nID\n"
    assert tuple(operations_from_text(text, designated)) == ops


def test_witness_text_empty():
    assert witness_to_text(()) == ""
    assert operations_from_text("") == []


def test_operations_from_text_ignores_comments_and_checks_pairs():
    ops = operations_from_text("# plan\nLC 0\n\nEF 3 1\n", designated=((1, 3),))
    assert ops == [Operation(LC, 0), Operation(EF, 0)]
    with pytest.raises(ValueError):
        operations_from_text("EF 0 1\n", designated=((1, 3),))
    with pytest.raises(ValueError):
        operations_from_text("LC 0 1\n")
    with pytest.raises(ValueError):
        operations_from_text("XX 0\n")

