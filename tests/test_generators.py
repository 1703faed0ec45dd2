"""Instance generators: random graphs, the network topology, and file formats."""

from __future__ import annotations

import math

import pytest

from gssynth.encoding import SynthesisInstance
from gssynth.graphs import Graph, isolated_vertices, pair_count, pairs, star_graph
from gssynth.generators import (
    NetworkTopology,
    builtin_network_14,
    erdos_renyi,
    ghz_target,
    hop_counts,
    network_graph,
    random_D,
    read_instance,
    secret_sharing_demo,
    write_instance,
)
from gssynth.oracle import reachable_bfs


# --- random graphs ------------------------------------------------------------


def test_er_extreme_probabilities():
    assert erdos_renyi(6, 0.0, 123) == Graph(6)
    assert erdos_renyi(6, 1.0, 123) == Graph(6, (1 << pair_count(6)) - 1)


def test_er_is_deterministic_per_seed():
    assert erdos_renyi(8, 0.5, 42) == erdos_renyi(8, 0.5, 42)
    assert erdos_renyi(8, 0.5, 42) != erdos_renyi(8, 0.5, 43)


def test_er_rejects_bad_probability():
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, 0)


def test_er_mean_edge_count_matches_the_binomial():
    n, p, trials = 10, 0.8, 10_000
    total = sum(len(erdos_renyi(n, p, seed).edges()) for seed in range(trials))
    mean = total / trials
    expected = p * pair_count(n)  # 36
    # per-draw std sqrt(45*0.8*0.2) = 2.683..., 3 sigma of the mean over 10k
    sigma_mean = math.sqrt(pair_count(n) * p * (1 - p) / trials)
    assert abs(mean - expected) <= 3 * sigma_mean


# --- network topology ------------------------------------------------------------


def test_builtin_topology_shape():
    topo = builtin_network_14()
    assert topo.n == 14
    assert len(topo.names) == 14
    assert len(topo.edges) == 16
    assert len(topo.end_nodes) == 4
    assert topo.names.index("delft") == 0
    assert [topo.names[e] for e in topo.end_nodes] == [
        "delft",
        "groningen",
        "enschede",
        "maastricht",
    ]


def test_topology_validation():
    with pytest.raises(ValueError):
        NetworkTopology(("a", "b"), ((0, 1), (1, 0)), ())  # duplicate link
    with pytest.raises(ValueError):
        NetworkTopology(("a", "b"), ((0, 2),), ())
    with pytest.raises(ValueError):
        NetworkTopology(("a", "b"), (), (2,))
    with pytest.raises(ValueError):
        NetworkTopology(("a", "b"), (), (0, 0))


def test_hop_counts_on_a_path():
    topo = NetworkTopology(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3)), (0, 3))
    table = hop_counts(topo)
    assert table[0] == [0, 1, 2, 3]
    assert table[3][0] == 3


def test_hop_counts_mark_disconnected_pairs():
    topo = NetworkTopology(("a", "b", "c"), ((0, 1),), ())
    assert hop_counts(topo)[0][2] == -1


def test_most_distant_end_nodes_are_six_hops_apart():
    topo = builtin_network_14()
    table = hop_counts(topo)
    distances = [
        table[a][b] for i, a in enumerate(topo.end_nodes) for b in topo.end_nodes[i + 1 :]
    ]
    assert max(distances) == 6  # frozen regression value


def test_hop_counts_cross_checked_against_networkx():
    nx = pytest.importorskip("networkx")
    topo = builtin_network_14()
    g = nx.Graph(list(topo.edges))
    table = hop_counts(topo)
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    for u in range(topo.n):
        for v in range(topo.n):
            assert table[u][v] == lengths[u].get(v, -1)


def test_network_graph_extremes():
    topo = builtin_network_14()
    assert network_graph(topo, 0.0, 5) == Graph(14)
    full = network_graph(topo, 1.0, 5)
    # p=1 connects every pair in the same component; the ring is connected
    assert len(full.edges()) == pair_count(14)


def test_network_graph_adjacent_pair_frequency_matches_p_squared():
    topo = NetworkTopology(("a", "b", "c"), ((0, 1), (1, 2)), (0, 2))
    p, trials = 0.9, 10_000
    hits = sum(network_graph(topo, p, seed).has_edge(0, 1) for seed in range(trials))
    freq = hits / trials
    expected = p**2  # one factor per spanned segment, both ends included
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(freq - expected) <= 3 * sigma


def test_network_graph_never_links_disconnected_nodes():
    topo = NetworkTopology(("a", "b", "c"), ((0, 1),), ())
    for seed in range(50):
        g = network_graph(topo, 1.0, seed)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 2)


# --- GHZ targets --------------------------------------------------------------------


def test_ghz_target_is_a_star_centered_on_the_smallest_party():
    assert ghz_target(4, (0, 1, 2, 3)) == star_graph(4, 0, (1, 2, 3))
    g = ghz_target(6, (0, 1, 2, 3))
    assert g == star_graph(6, 0, (1, 2, 3))
    assert isolated_vertices(g) == frozenset({4, 5})
    assert ghz_target(3, (2, 1)) == Graph.from_edges(3, [(1, 2)])


def test_ghz_target_validation():
    with pytest.raises(ValueError):
        ghz_target(4, (1,))
    with pytest.raises(ValueError):
        ghz_target(4, (0, 4))


# --- designated pair sampling ----------------------------------------------------------


def test_random_D_size_zero():
    assert random_D(5, 0, 0) == ()


def test_random_D_pairs_are_distinct_and_normalized():
    for seed in range(1000):
        chosen = random_D(10, 5, seed)
        assert len(chosen) == 5
        assert len(set(chosen)) == 5
        for u, v in chosen:
            assert 0 <= u < v < 10
        assert chosen == tuple(sorted(chosen))


def test_random_D_is_deterministic_and_bounded():
    assert random_D(6, 3, 9) == random_D(6, 3, 9)
    with pytest.raises(ValueError):
        random_D(3, 4, 0)


# --- the running example ----------------------------------------------------------------


def test_demo_instance_shape():
    inst = secret_sharing_demo()
    assert inst.n == 6
    assert inst.source.edges() == [(0, 2), (0, 4), (0, 5), (1, 4), (3, 5)]
    assert inst.target == ghz_target(6, (0, 1, 2, 3))
    assert inst.designated == ()


def test_demo_instance_is_reachable_in_four_steps():
    result = reachable_bfs(secret_sharing_demo())
    assert result.reachable
    assert result.shortest_length == 4  # frozen via the reference search


# --- instance files ----------------------------------------------------------------------


def test_instance_file_round_trip():
    inst = SynthesisInstance(
        Graph.from_edges(5, [(0, 1), (2, 4)]),
        star_graph(5, 1, (2, 3)),
        ((0, 3), (1, 4)),
    )
    meta = {"family": "er", "seed": "7"}
    text = write_instance(inst, meta)
    loaded, loaded_meta = read_instance(text)
    assert loaded == inst
    assert loaded_meta == meta


def test_instance_file_without_optional_sections():
    inst = SynthesisInstance(Graph(3), Graph.from_edges(3, [(0, 1)]))
    loaded, meta = read_instance(write_instance(inst))
    assert loaded == inst
    assert meta == {}


def test_write_instance_is_deterministic():
    inst = secret_sharing_demo()
    assert write_instance(inst, {"b": "2", "a": "1"}) == write_instance(
        inst, {"a": "1", "b": "2"}
    )


def test_read_instance_ignores_comments_and_rejects_garbage():
    text = "# generated\nn 3\nsource\n0 1\ntarget\n\n1 2\n"
    inst, _ = read_instance(text)
    assert inst.source.edges() == [(0, 1)]
    assert inst.target.edges() == [(1, 2)]
    with pytest.raises(ValueError):
        read_instance("source\n0 1\n")  # missing vertex count
    with pytest.raises(ValueError):
        read_instance("n 3\nsource\n0 1 2\n")
