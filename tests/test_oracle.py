"""Breadth-first reference search over the plain graph semantics."""

from __future__ import annotations

import ast
import hashlib
import sys
from pathlib import Path

import pytest

import gssynth.encoding
import gssynth.graphs
import gssynth.oracle

from gssynth.encoding import SynthesisInstance
from gssynth.generators import erdos_renyi, ghz_target, random_D, secret_sharing_demo
from gssynth.graphs import (
    Graph,
    Operation,
    all_graphs,
    local_complement,
    pair_count,
    star_graph,
)
from gssynth.oracle import (
    ReachabilityResult,
    StateCapExceeded,
    reachable_bfs,
    reachable_set,
    step_operations,
)
from gssynth.witness import replay, replay_verify


def complete_graph(n: int) -> Graph:
    return Graph(n, (1 << pair_count(n)) - 1)


def test_step_operations_fixed_order():
    ops = step_operations(3, 2)
    assert [op.kind for op in ops] == ["LC"] * 3 + ["VD"] * 3 + ["EF"] * 2
    assert [op.arg for op in ops] == [0, 1, 2, 0, 1, 2, 0, 1]


def test_star_to_complete_is_one_step():
    star = star_graph(4, 0, (1, 2, 3))
    result = reachable_bfs(SynthesisInstance(star, complete_graph(4)))
    assert result.reachable
    assert result.shortest_length == 1
    assert result.shortest == (Operation("LC", 0),)


def test_source_equals_target_needs_no_steps():
    g = Graph.from_edges(3, [(0, 1)])
    result = reachable_bfs(SynthesisInstance(g, g))
    assert result.reachable
    assert result.shortest == ()


def test_shortest_path_replays_to_the_target():
    # star centered at 1 --LC 1--> K5 --LC 0--> star centered at 0
    target = star_graph(5, 0, (1, 2, 3, 4))
    source = local_complement(local_complement(target, 0), 1)
    inst = SynthesisInstance(source, target)
    result = reachable_bfs(inst)
    assert result.reachable
    assert result.shortest_length == 2
    assert replay_verify(inst, replay(inst, result.shortest)).ok


def test_five_cycle_cannot_reach_the_full_star():
    # the 5-cycle sits in a different LC class than the star, and any VD
    # step isolates a vertex for good while the star keeps all five busy
    source = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    target = star_graph(5, 0, (1, 2, 3, 4))
    result = reachable_bfs(SynthesisInstance(source, target))
    assert not result.reachable
    assert result.explored == 348


def test_isolated_vertex_cannot_be_reattached_without_ef():
    inst = SynthesisInstance(
        Graph.from_edges(3, [(0, 1)]), Graph.from_edges(3, [(0, 2)])
    )
    result = reachable_bfs(inst)
    assert not result.reachable
    assert result.shortest is None
    assert result.explored >= 1


def test_edge_flips_open_up_unreachable_targets():
    source = Graph.from_edges(3, [(0, 1)])
    target = Graph.from_edges(3, [(0, 2)])
    inst = SynthesisInstance(source, target, designated=((0, 2),))
    result = reachable_bfs(inst)
    assert result.reachable
    # VD(1) then EF((0,2)) is the obvious two-step route; BFS may find another
    assert result.shortest_length == 2


def test_state_cap_raises_instead_of_guessing():
    # the empty target is several deletions away, so the frontier outgrows
    # a tiny cap long before a verdict is possible
    inst = SynthesisInstance(complete_graph(5), Graph(5))
    with pytest.raises(StateCapExceeded):
        reachable_bfs(inst, state_cap=4)


def test_reachable_set_with_and_without_vd():
    single = Graph.from_edges(2, [(0, 1)])
    assert reachable_set(single, include_vd=False) == {single}
    assert reachable_set(single) == {single, Graph(2)}


def test_reachable_set_cap():
    with pytest.raises(StateCapExceeded):
        reachable_set(complete_graph(5), state_cap=3)


def test_a_state_cap_of_n_stores_at_most_n_states():
    # ER(4, 0.8) seed 0 closes after 34 states, so a cap of 34 answers every
    # question about it and a cap of 33 answers none that needs all 34
    source = erdos_renyi(4, 0.8, 0)
    closure = reachable_set(source)
    assert len(closure) == 34
    assert reachable_set(source, state_cap=34) == closure
    with pytest.raises(StateCapExceeded):
        reachable_set(source, state_cap=33)
    last = [g for g in closure if reachable_bfs(SynthesisInstance(source, g)).explored == 34]
    assert last == [Graph(4, 17)]  # the state the search stores last
    found = reachable_bfs(SynthesisInstance(source, last[0]), state_cap=34)
    assert found.reachable and found.explored == 34
    outside = SynthesisInstance(source, next(g for g in all_graphs(4) if g not in closure))
    assert reachable_bfs(outside, state_cap=34) == ReachabilityResult(False, None, 34)
    for inst in (SynthesisInstance(source, last[0]), outside):
        with pytest.raises(StateCapExceeded):
            reachable_bfs(inst, state_cap=33)


def test_reachable_bfs_answers_are_pinned():
    # every (verdict, shortest sequence, explored) on the criterion-3 grid with
    # both D sizes, plus the demo, hashed: a rewrite of the search must not move one
    digest = hashlib.sha256()
    instances = [
        SynthesisInstance(
            erdos_renyi(n, p, seed),
            ghz_target(n, range(min(4, n))),
            random_D(n, d_size, seed + 1) if d_size else (),
        )
        for n in (3, 4, 5)
        for p in (0.3, 0.5, 0.8)
        for seed in range(12)
        for d_size in (0, 2)
    ]
    for inst in [*instances, secret_sharing_demo()]:
        result = reachable_bfs(inst)
        ops = None if result.shortest is None else ",".join(map(str, result.shortest))
        digest.update(f"{result.reachable}|{ops}|{result.explored}\n".encode())
    assert digest.hexdigest() == (
        "3be48000242c58a2f92603165cd96480cb9e61ecdde8e672bc6eb42485242536"
    )


def test_reachable_set_answers_are_pinned():
    # the closure of every graph on 2 to 4 vertices, with and without a
    # designated pair and with and without VD, hashed
    digest = hashlib.sha256()
    for n in (2, 3, 4):
        for g in all_graphs(n):
            for designated in ((), ((0, 1),)):
                for include_vd in (True, False):
                    closure = reachable_set(g, designated, include_vd=include_vd)
                    digest.update(f"{sorted(h.bits for h in closure)}\n".encode())
    assert digest.hexdigest() == (
        "4bf49381d7aa7b18a733be2b06c508eaab85e51cd44e2242e7a64ad78e0564ab"
    )


def test_the_oracle_imports_only_graphs_and_the_standard_library():
    # the oracle is the ground truth, so it must not share code with the encoder
    tree = ast.parse(Path(gssynth.oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert ".graphs" in imported
    for name in imported:
        assert name == ".graphs" or name.split(".")[0] in sys.stdlib_module_names, name
    # the encoder's name for the instance type is the same class
    assert gssynth.encoding.SynthesisInstance is gssynth.graphs.SynthesisInstance
