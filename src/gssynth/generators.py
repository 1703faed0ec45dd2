"""Instance generation: random sources, network-derived sources, GHZ targets.

All randomness goes through random.Random (CPython's Mersenne Twister) seeded
explicitly, and draws happen in a fixed documented order, so any instance can
be regenerated from (family, parameters, seed) alone.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .graphs import Edge, Graph, SynthesisInstance, normalize_edge, pairs, star_graph


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each pair gets an edge independently with probability p.

    Pairs are drawn in lexicographic order, one rng.random() per pair.
    """
    _check_probability(p)
    rng = random.Random(seed)
    bits = 0
    for i in range(len(pairs(n))):
        if rng.random() < p:
            bits |= 1 << i
    return Graph(n, bits)


@dataclass(frozen=True)
class NetworkTopology:
    """Physical network: named nodes, links, and the end nodes acting as parties."""

    names: Tuple[str, ...]
    edges: Tuple[Edge, ...]
    end_nodes: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.names)
        norm = tuple(normalize_edge(u, v) for u, v in self.edges)
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate links")
        for u, v in norm:
            if v >= n:
                raise ValueError(f"link ({u}, {v}) out of range")
        for e in self.end_nodes:
            if not 0 <= e < n:
                raise ValueError(f"end node {e} out of range")
        if len(set(self.end_nodes)) != len(self.end_nodes):
            raise ValueError("duplicate end nodes")
        object.__setattr__(self, "edges", norm)

    @property
    def n(self) -> int:
        return len(self.names)


def hop_counts(topo: NetworkTopology) -> List[List[int]]:
    """All-pairs link distance; -1 where disconnected."""
    n = topo.n
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in topo.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    table = [[-1] * n for _ in range(n)]
    for s in range(n):
        table[s][s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if table[s][y] == -1:
                    table[s][y] = table[s][x] + 1
                    queue.append(y)
    return table


def network_graph(topo: NetworkTopology, p: float, seed: int) -> Graph:
    """Random graph over the topology's nodes.

    A pair at h links of distance becomes an edge with probability p^(h+1):
    one factor per elementary segment spanned, counting both end segments.
    Pairs are drawn in lexicographic order, one rng.random() per connected
    pair; disconnected pairs never get an edge and consume no draw.
    """
    _check_probability(p)
    hops = hop_counts(topo)
    rng = random.Random(seed)
    bits = 0
    for i, (u, v) in enumerate(pairs(topo.n)):
        h = hops[u][v]
        if h < 0:
            continue
        if rng.random() < p ** (h + 1):
            bits |= 1 << i
    return Graph(topo.n, bits)


def builtin_network_14() -> NetworkTopology:
    """A 14-node national fiber ring topology with 4 end nodes.

    Indices are fixed (alphabetical layout of the ring from the southwest):
    the end nodes delft, groningen, enschede, and maastricht are the parties
    that want to share a GHZ state.
    """
    names = (
        "delft",        # 0, end node
        "amsterdam",    # 1
        "almere",       # 2
        "zwolle-a",     # 3
        "zwolle-b",     # 4
        "meppel",       # 5
        "dwingeloo",    # 6
        "groningen",    # 7, end node
        "enschede",     # 8, end node
        "arnhem",       # 9
        "venlo",        # 10
        "maastricht",   # 11, end node
        "eindhoven",    # 12
        "nieuwegein",   # 13
    )
    edges = (
        (0, 1),
        (0, 2),
        (0, 13),
        (1, 2),
        (2, 3),
        (2, 13),
        (3, 4),
        (4, 5),
        (4, 8),
        (4, 9),
        (5, 6),
        (6, 7),
        (9, 10),
        (10, 11),
        (11, 12),
        (12, 13),
    )
    return NetworkTopology(names, edges, (0, 7, 8, 11))


def ghz_target(n: int, parties: Iterable[int]) -> Graph:
    """Graph-state form of a GHZ state over the parties: a star.

    The smallest party index is the center; everything else stays isolated.
    """
    party_list = sorted(set(parties))
    if len(party_list) < 2:
        raise ValueError("need at least two parties")
    if party_list[0] < 0 or party_list[-1] >= n:
        raise ValueError("party out of range")
    center = party_list[0]
    return star_graph(n, center, party_list[1:])


def random_D(n: int, size: int, seed: int) -> Tuple[Edge, ...]:
    """`size` distinct vertex pairs, drawn by a partial Fisher-Yates shuffle.

    Only rng.randrange is consumed, so the draw sequence is pinned exactly.
    """
    pool = pairs(n)
    if size < 0:
        raise ValueError(f"cannot pick {size} pairs")
    if size > len(pool):
        raise ValueError(f"cannot pick {size} distinct pairs from {len(pool)}")
    rng = random.Random(seed)
    for i in range(size):
        j = rng.randrange(i, len(pool))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:size]))


def secret_sharing_demo() -> SynthesisInstance:
    """Six-qubit running example: four parties plus two relay qubits.

    Parties 0..3 hold a linear-cluster-like resource entangled through relays
    4 and 5; the goal is a GHZ state among the parties, leaving the relays
    isolated.
    """
    source = Graph.from_edges(6, [(0, 2), (0, 4), (1, 4), (0, 5), (3, 5)])
    return SynthesisInstance(source, ghz_target(6, (0, 1, 2, 3)))


# --- instance file format --------------------------------------------------------
#
# Line-oriented sections:
#
#   n <count>
#   source        (one "u v" edge line per edge)
#   target
#   D             (optional; one "u v" pair line per designated pair)
#   meta          (optional; "key value" lines, values kept as strings)
#
# Blank lines and "#" comments are ignored.  write_instance emits sections in
# the order above with edges sorted, so serialization is deterministic.


def write_instance(inst: SynthesisInstance, meta: Optional[Dict[str, str]] = None) -> str:
    lines = [f"n {inst.n}", "source"]
    lines.extend(f"{u} {v}" for u, v in inst.source.edges())
    lines.append("target")
    lines.extend(f"{u} {v}" for u, v in inst.target.edges())
    if inst.designated:
        lines.append("D")
        lines.extend(f"{u} {v}" for u, v in sorted(inst.designated))
    if meta:
        lines.append("meta")
        lines.extend(f"{key} {value}" for key, value in sorted(meta.items()))
    return "\n".join(lines) + "\n"


def read_instance(text: str) -> Tuple[SynthesisInstance, Dict[str, str]]:
    n: Optional[int] = None
    section: Optional[str] = None
    edges: Dict[str, List[Edge]] = {"source": [], "target": [], "D": []}
    meta: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2 and n is None:
            n = int(parts[1])
            continue
        if line in ("source", "target", "D", "meta"):
            section = line
            continue
        if section == "meta":
            key, _, value = line.partition(" ")
            meta[key] = value.strip()
            continue
        if section in edges and len(parts) == 2:
            edges[section].append((int(parts[0]), int(parts[1])))
            continue
        raise ValueError(f"bad instance line {line!r}")
    if n is None:
        raise ValueError("instance text missing the 'n <count>' line")
    inst = SynthesisInstance(
        Graph.from_edges(n, edges["source"]),
        Graph.from_edges(n, edges["target"]),
        tuple(edges["D"]),
    )
    return inst, meta
