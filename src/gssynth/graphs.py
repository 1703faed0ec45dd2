"""Simple graphs on vertices 0..n-1 and the local operations used in synthesis.

A graph is stored as a packed bitmask over the lexicographic order of vertex
pairs (u, v) with u < v, so graphs are hashable values and the state space of
n-vertex graphs is exactly the integers 0 .. 2**(n*(n-1)/2) - 1.

Operations:

* LC(k)   local complementation at k: toggle every edge between two distinct
          neighbors of k.
* VD(k)   vertex deletion at k: remove every edge incident to k.  The vertex
          itself stays, so the vertex count never changes.
* EF(i)   edge flip of the i-th designated pair in a list D of vertex pairs:
          toggle exactly that pair.
* ID      do nothing (padding step in decoded operation sequences).

A synthesis instance pairs a source and a target graph with the list D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

Edge = Tuple[int, int]

LC = "LC"
VD = "VD"
EF = "EF"
ID = "ID"


def pair_count(n: int) -> int:
    """Number of vertex pairs (u, v) with u < v on n vertices."""
    return n * (n - 1) // 2


def pair_index(n: int, u: int, v: int) -> int:
    """Index of pair (u, v), u < v, in lexicographic order."""
    if not 0 <= u < v < n:
        raise ValueError(f"pair ({u}, {v}) out of range for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pairs(n: int) -> list[Edge]:
    """All vertex pairs (u, v) with u < v in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count plus a packed edge bitmask."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not 0 <= self.bits < 1 << pair_count(self.n):
            raise ValueError("edge bitmask out of range for vertex count")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        bits = 0
        for u, v in edges:
            u, v = normalize_edge(u, v)
            bits |= 1 << pair_index(n, u, v)
        return cls(n, bits)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = normalize_edge(u, v)
        return bool(self.bits >> pair_index(self.n, u, v) & 1)

    def edges(self) -> list[Edge]:
        return [e for i, e in enumerate(pairs(self.n)) if self.bits >> i & 1]

    def toggled(self, toggle_pairs: Iterable[Edge]) -> "Graph":
        """Graph with every listed pair flipped."""
        mask = 0
        for u, v in toggle_pairs:
            u, v = normalize_edge(u, v)
            mask ^= 1 << pair_index(self.n, u, v)
        return Graph(self.n, self.bits ^ mask)


@dataclass(frozen=True)
class Operation:
    """One synthesis step.  For EF the argument indexes into the pair list D."""

    kind: str
    arg: int

    def __post_init__(self) -> None:
        if self.kind not in (LC, VD, EF, ID):
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.arg < 0:
            raise ValueError("operation argument must be nonnegative")

    def __str__(self) -> str:
        return f"{self.kind} {self.arg}" if self.kind != ID else ID


def neighborhood(g: Graph, k: int) -> tuple[int, ...]:
    """Neighbors of vertex k in increasing order."""
    if not 0 <= k < g.n:
        raise ValueError(f"vertex {k} out of range for n={g.n}")
    return tuple(v for v in range(g.n) if v != k and g.has_edge(k, v))


def local_complement(g: Graph, k: int) -> Graph:
    """Toggle every pair of distinct neighbors of k."""
    nb = neighborhood(g, k)
    return g.toggled((u, v) for i, u in enumerate(nb) for v in nb[i + 1 :])


def delete_vertex_edges(g: Graph, k: int) -> Graph:
    """Remove every edge incident to k; the vertex itself remains."""
    if not 0 <= k < g.n:
        raise ValueError(f"vertex {k} out of range for n={g.n}")
    mask = 0
    for v in range(g.n):
        if v != k:
            u, w = normalize_edge(k, v)
            mask |= 1 << pair_index(g.n, u, w)
    return Graph(g.n, g.bits & ~mask)


def flip_edge(g: Graph, u: int, v: int) -> Graph:
    """Toggle the single pair (u, v)."""
    return g.toggled([(u, v)])


def apply_operation(g: Graph, op: Operation, designated: Sequence[Edge] = ()) -> Graph:
    """Apply one operation; EF arguments index into `designated`."""
    if op.kind == LC:
        return local_complement(g, op.arg)
    if op.kind == VD:
        return delete_vertex_edges(g, op.arg)
    if op.kind == EF:
        if op.arg >= len(designated):
            raise ValueError(f"EF index {op.arg} out of range for |D|={len(designated)}")
        return flip_edge(g, *designated[op.arg])
    return g


def isolated_vertices(g: Graph) -> frozenset[int]:
    """Vertices with no incident edge."""
    return frozenset(k for k in range(g.n) if not neighborhood(g, k))


def star_graph(n: int, center: int, leaves: Iterable[int]) -> Graph:
    """Star on the given leaves around `center`; other vertices stay isolated."""
    leaf_set = set(leaves)
    if center in leaf_set:
        raise ValueError("center cannot be one of the leaves")
    return Graph.from_edges(n, ((center, leaf) for leaf in leaf_set))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every simple graph on n vertices (2**(n*(n-1)/2) of them)."""
    for bits in range(1 << pair_count(n)):
        yield Graph(n, bits)


@dataclass(frozen=True)
class SynthesisInstance:
    """Source graph, target graph, and the designated pairs EF may flip."""

    source: Graph
    target: Graph
    designated: Tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.source.n < 1:
            raise ValueError("need at least one vertex")
        if self.source.n != self.target.n:
            raise ValueError("source and target must have the same vertex count")
        norm = tuple(normalize_edge(u, v) for u, v in self.designated)
        for u, v in norm:
            if v >= self.source.n:
                raise ValueError(f"designated pair ({u}, {v}) out of range")
        if len(set(norm)) != len(norm):
            raise ValueError("designated pairs must be distinct")
        object.__setattr__(self, "designated", norm)

    @property
    def n(self) -> int:
        return self.source.n
