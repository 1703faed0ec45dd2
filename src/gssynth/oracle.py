"""Breadth-first reachability over the plain graph semantics.

This is the independent reference the SAT pipeline is checked against: it
never touches the encoder or a solver, just applies operations to graphs.
`reachable_bfs` and `reachable_set` run one search.  State counts grow as
2^(n*(n-1)/2), so a cap of N stores at most N states; a search that needs
more raises instead of guessing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graphs import (
    EF,
    LC,
    VD,
    Edge,
    Graph,
    Operation,
    SynthesisInstance,
    apply_operation,
)

DEFAULT_STATE_CAP = 1 << 22


class StateCapExceeded(RuntimeError):
    """The search needed to store more states than its cap."""


@dataclass(frozen=True)
class ReachabilityResult:
    reachable: bool
    shortest: Optional[Tuple[Operation, ...]]  # None when unreachable
    explored: int

    @property
    def shortest_length(self) -> Optional[int]:
        return None if self.shortest is None else len(self.shortest)


def step_operations(n: int, num_designated: int) -> List[Operation]:
    """Every operation applicable to an n-vertex instance, in a fixed order."""
    ops = [Operation(LC, k) for k in range(n)]
    ops += [Operation(VD, k) for k in range(n)]
    ops += [Operation(EF, i) for i in range(num_designated)]
    return ops


def _search(
    start: Graph, designated: Sequence[Edge], include_vd: bool, state_cap: int,
    target: Optional[Graph] = None,
) -> Dict[Graph, Optional[Tuple[Graph, Operation]]]:
    """Each state reachable from start, with the state and step that first reached it.

    The search stops as soon as it stores target.
    """
    ops = [op for op in step_operations(start.n, len(designated)) if include_vd or op.kind != VD]
    parents: Dict[Graph, Optional[Tuple[Graph, Operation]]] = {start: None}
    queue = deque([start])
    while queue and target not in parents:
        current = queue.popleft()
        for op in ops:
            nxt = apply_operation(current, op, designated)
            if nxt not in parents:
                if len(parents) >= state_cap:
                    raise StateCapExceeded(f"search exceeded {state_cap} states before a verdict")
                parents[nxt] = (current, op)
                if nxt == target:
                    break
                queue.append(nxt)
    return parents


def reachable_bfs(
    inst: SynthesisInstance, state_cap: int = DEFAULT_STATE_CAP
) -> ReachabilityResult:
    """Shortest operation sequence from source to target, or unreachable."""
    parents = _search(inst.source, inst.designated, True, state_cap, inst.target)
    if inst.target not in parents:
        return ReachabilityResult(False, None, len(parents))
    path: List[Operation] = []
    node = inst.target
    while parents[node] is not None:
        node, op = parents[node]  # type: ignore[misc]
        path.append(op)
    return ReachabilityResult(True, tuple(reversed(path)), len(parents))


def reachable_set(
    start: Graph,
    designated: Sequence[Edge] = (),
    include_vd: bool = True,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Set[Graph]:
    """Every graph reachable from start; optionally restricted to LC (+EF) only."""
    return set(_search(start, designated, include_vd, state_cap))
