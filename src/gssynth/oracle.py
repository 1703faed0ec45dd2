"""Breadth-first reachability over the plain graph semantics.

This is the independent reference the SAT pipeline is checked against: it
never touches the encoder or a solver, just applies operations to graphs.
State counts grow as 2^(n*(n-1)/2), so a hard cap guards against runaway
searches; hitting it raises instead of guessing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
    """The search frontier outgrew the configured state cap."""


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


def reachable_bfs(
    inst: SynthesisInstance, state_cap: int = DEFAULT_STATE_CAP
) -> ReachabilityResult:
    """Shortest operation sequence from source to target, or unreachable.

    Explores the whole reachable component if needed; raises StateCapExceeded
    rather than returning a wrong verdict when the cap is hit.
    """
    ops = step_operations(inst.n, len(inst.designated))
    start = inst.source
    if start == inst.target:
        return ReachabilityResult(True, (), 1)
    parents: Dict[Graph, Tuple[Optional[Graph], Optional[Operation]]] = {
        start: (None, None)
    }
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for op in ops:
            nxt = apply_operation(current, op, inst.designated)
            if nxt in parents:
                continue
            parents[nxt] = (current, op)
            if nxt == inst.target:
                path: List[Operation] = []
                node: Optional[Graph] = nxt
                while node is not None and parents[node][1] is not None:
                    prev, step = parents[node]
                    path.append(step)  # type: ignore[arg-type]
                    node = prev
                path.reverse()
                return ReachabilityResult(True, tuple(path), len(parents))
            if len(parents) > state_cap:
                raise StateCapExceeded(
                    f"search exceeded {state_cap} states before reaching a verdict"
                )
            queue.append(nxt)
    return ReachabilityResult(False, None, len(parents))


def reachable_set(
    start: Graph,
    designated: Sequence[Edge] = (),
    include_vd: bool = True,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Set[Graph]:
    """Every graph reachable from start; optionally restricted to LC (+EF) only."""
    ops = step_operations(start.n, len(designated))
    if not include_vd:
        ops = [op for op in ops if op.kind != VD]
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for op in ops:
            nxt = apply_operation(current, op, designated)
            if nxt not in seen:
                if len(seen) >= state_cap:
                    raise StateCapExceeded(
                        f"search exceeded {state_cap} states before closing"
                    )
                seen.add(nxt)
                queue.append(nxt)
    return seen
