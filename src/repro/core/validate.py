"""Structural validation of dataflow graphs.

The :class:`~repro.core.dfg.DataflowGraph` construction API already enforces
the strongest invariant (operations may only reference earlier operations,
so graphs are acyclic by construction).  This module adds the whole-graph
checks that only make sense once construction is finished, plus a validator
for externally supplied edge sets (schedule arcs).
"""

from __future__ import annotations

from ..errors import GraphError
from .dfg import DataflowGraph


def validate_dfg(dfg: DataflowGraph, require_outputs: bool = False) -> None:
    """Check whole-graph invariants; raise :class:`GraphError` on failure.

    * the graph has at least one operation,
    * every primary output refers to an existing operation,
    * (optionally) at least one primary output is declared,
    * insertion order is topological (defensive re-check).
    """
    if not len(dfg):
        raise GraphError(f"graph {dfg.name!r} has no operations")
    if require_outputs and not dfg.outputs:
        raise GraphError(f"graph {dfg.name!r} declares no primary outputs")
    seen: set[str] = set()
    for op in dfg:
        for pred in op.data_predecessors():
            if pred not in seen:
                raise GraphError(
                    f"operation {op.name!r} references {pred!r} before it "
                    f"is defined (topological-order invariant broken)"
                )
        seen.add(op.name)
    for out_name, op_name in dfg.outputs.items():
        if op_name not in dfg:
            raise GraphError(
                f"output {out_name!r} refers to unknown operation {op_name!r}"
            )


def validate_extra_edges(
    dfg: DataflowGraph, edges: "tuple[tuple[str, str], ...]"
) -> None:
    """Check that added (schedule) arcs keep the combined graph acyclic.

    An arc ``(u, v)`` is illegal when ``v`` already (transitively) feeds
    ``u`` — in that case the arc closes a cycle.  Self-arcs are rejected
    too.  The check must consider the *combination* of data edges and all
    supplied arcs, so we run a DFS over the merged edge relation.
    """
    for u, v in edges:
        if u not in dfg or v not in dfg:
            raise GraphError(f"schedule arc ({u!r}, {v!r}) names unknown ops")
        if u == v:
            raise GraphError(f"schedule arc ({u!r}, {u!r}) is a self-loop")

    succ: dict[str, set[str]] = {op.name: set() for op in dfg}
    for a, b in dfg.edges():
        succ[a].add(b)
    for a, b in edges:
        succ[a].add(b)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in succ}

    def dfs(node: str) -> None:
        color[node] = GRAY
        for nxt in succ[node]:
            if color[nxt] == GRAY:
                raise GraphError(
                    f"schedule arcs create a cycle through {nxt!r}"
                )
            if color[nxt] == WHITE:
                dfs(nxt)
        color[node] = BLACK

    for name in succ:
        if color[name] == WHITE:
            dfs(name)
