"""Graph representation and the local operations (LC, VD, EF)."""

from __future__ import annotations

import random

import pytest

from gssynth.graphs import (
    EF,
    ID,
    LC,
    VD,
    Graph,
    Operation,
    all_graphs,
    apply_operation,
    delete_vertex_edges,
    flip_edge,
    isolated_vertices,
    local_complement,
    neighborhood,
    normalize_edge,
    pair_count,
    pair_index,
    pairs,
    star_graph,
)


def complete_graph(n: int) -> Graph:
    return Graph(n, (1 << pair_count(n)) - 1)


# --- pair indexing ----------------------------------------------------------


def test_pair_index_is_lexicographic_bijection():
    for n in (2, 3, 4, 7):
        seen = [pair_index(n, u, v) for u, v in pairs(n)]
        assert seen == list(range(pair_count(n)))


def test_pair_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        pair_index(4, 2, 2)
    with pytest.raises(ValueError):
        pair_index(4, 3, 1)  # must be ordered
    with pytest.raises(ValueError):
        pair_index(4, 0, 4)


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        normalize_edge(2, 2)


# --- Graph basics -----------------------------------------------------------


def test_from_edges_round_trips_and_orders():
    g = Graph.from_edges(4, [(3, 1), (0, 2)])
    assert g.edges() == [(0, 2), (1, 3)]
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 1)
    assert len(g.edges()) == 2


def test_graph_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        Graph(3, 1 << 3)
    with pytest.raises(ValueError):
        Graph(-1, 0)


def test_toggled_flips_exactly_the_listed_pairs():
    g = Graph.from_edges(4, [(0, 1)])
    h = g.toggled([(0, 1), (2, 3)])
    assert h.edges() == [(2, 3)]


def test_all_graphs_enumerates_the_full_state_space():
    graphs = list(all_graphs(3))
    assert len(graphs) == 8
    assert len(set(graphs)) == 8


# --- neighborhood -----------------------------------------------------------


def test_neighborhood_of_star_leaf_is_the_center():
    star = star_graph(4, 0, (1, 2, 3))
    assert neighborhood(star, 1) == (0,)
    assert neighborhood(star, 0) == (1, 2, 3)


def test_neighborhood_in_empty_graph_is_empty():
    assert neighborhood(Graph(4), 2) == ()


# --- local complementation ---------------------------------------------------


def test_lc_on_triangle_toggles_the_opposite_edge():
    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert local_complement(triangle, 0).edges() == [(0, 1), (0, 2)]


def test_lc_at_isolated_vertex_is_identity():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert local_complement(g, 3) == g


def test_lc_turns_star_into_complete_graph():
    star = star_graph(4, 0, (1, 2, 3))
    assert local_complement(star, 0) == complete_graph(4)


# --- vertex deletion ----------------------------------------------------------


def test_vd_at_star_center_empties_the_graph():
    star = star_graph(4, 0, (1, 2, 3))
    assert delete_vertex_edges(star, 0) == Graph(4)


def test_vd_keeps_the_vertex_count():
    g = delete_vertex_edges(complete_graph(5), 2)
    assert g.n == 5
    assert 2 in isolated_vertices(g)


def test_vd_at_isolated_vertex_is_identity():
    g = Graph.from_edges(3, [(0, 1)])
    assert delete_vertex_edges(g, 2) == g


# --- edge flip ----------------------------------------------------------------


def test_flip_edge_on_empty_graph_adds_it():
    assert flip_edge(Graph(3), 0, 1).edges() == [(0, 1)]


def test_flip_edge_removes_from_complete_graph():
    g = flip_edge(complete_graph(4), 0, 1)
    assert g == complete_graph(4).toggled([(0, 1)])
    assert not g.has_edge(0, 1)


# --- operations ----------------------------------------------------------------


def test_apply_operation_dispatch():
    star = star_graph(4, 0, (1, 2, 3))
    assert apply_operation(star, Operation(LC, 0)) == complete_graph(4)
    assert apply_operation(star, Operation(VD, 0)) == Graph(4)
    assert apply_operation(star, Operation(ID, 0)) == star
    flipped = apply_operation(Graph(3), Operation(EF, 0), designated=[(0, 2)])
    assert flipped.edges() == [(0, 2)]


def test_ef_index_out_of_range_raises():
    with pytest.raises(ValueError):
        apply_operation(Graph(3), Operation(EF, 1), designated=[(0, 1)])


def test_operation_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Operation("XX", 0)
    with pytest.raises(ValueError):
        Operation(LC, -1)


# --- isolated vertices / star builder -------------------------------------------


def test_isolated_vertices():
    assert isolated_vertices(complete_graph(4)) == frozenset()
    assert isolated_vertices(Graph(5)) == frozenset(range(5))
    assert isolated_vertices(Graph.from_edges(4, [(1, 2)])) == frozenset({0, 3})


def test_star_graph_with_no_leaves_is_empty():
    assert star_graph(5, 2, ()) == Graph(5)


def test_star_graph_rejects_center_among_leaves():
    with pytest.raises(ValueError):
        star_graph(4, 1, (1, 2))


# --- operation laws ---------------------------------------------------------------
#
# Exhaustive on n=4 here; the acceptance suite repeats them there and on
# 10,000 randomized n=10 cases.


def test_lc_involution_exhaustive_n4():
    for g in all_graphs(4):
        for k in range(4):
            assert local_complement(local_complement(g, k), k) == g


def test_vd_idempotent_exhaustive_n4():
    for g in all_graphs(4):
        for k in range(4):
            once = delete_vertex_edges(g, k)
            assert delete_vertex_edges(once, k) == once


def test_lc_after_vd_at_same_vertex_is_absorbed_exhaustive_n4():
    for g in all_graphs(4):
        for k in range(4):
            deleted = delete_vertex_edges(g, k)
            assert local_complement(deleted, k) == deleted


def test_lc_and_vd_commute_at_distinct_vertices_exhaustive_n4():
    for g in all_graphs(4):
        for j in range(4):
            for k in range(4):
                if j == k:
                    continue
                assert local_complement(delete_vertex_edges(g, k), j) == delete_vertex_edges(
                    local_complement(g, j), k
                )


def test_ef_involution_exhaustive_n4():
    for g in all_graphs(4):
        for u, v in pairs(4):
            assert flip_edge(flip_edge(g, u, v), u, v) == g


def test_isolation_is_monotone_under_random_lc_vd_sequences():
    rng = random.Random(7)
    for _ in range(300):
        n = 6
        g = Graph(n, rng.getrandbits(pair_count(n)))
        stuck = rng.randrange(n)
        g = delete_vertex_edges(g, stuck)
        for _ in range(12):
            kind = rng.choice((LC, VD))
            g = apply_operation(g, Operation(kind, rng.randrange(n)))
            assert stuck in isolated_vertices(g)
