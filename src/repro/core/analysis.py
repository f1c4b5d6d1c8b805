"""Static timing analysis on dataflow graphs.

These are the classic HLS graph analyses: ASAP / ALAP levels and the
critical path, parameterized by a per-operation duration (in abstract time
steps).  They are used both by the schedulers and by the analytic latency
model (the distributed controller's latency *is* the weighted longest path,
see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from ..errors import GraphError
from .dfg import DataflowGraph

#: A duration assignment: operation name -> number of time steps (>= 1).
Durations = Mapping[str, int]


def uniform_durations(dfg: DataflowGraph, steps: int = 1) -> dict[str, int]:
    """Duration map giving every operation the same number of steps."""
    return {op.name: steps for op in dfg}


def _check_durations(dfg: DataflowGraph, durations: Durations) -> None:
    for op in dfg:
        d = durations.get(op.name)
        if d is None:
            raise GraphError(f"no duration for operation {op.name!r}")
        if d < 1:
            raise GraphError(f"duration of {op.name!r} must be >= 1, got {d}")


def asap_start_times(
    dfg: DataflowGraph,
    durations: "Durations | None" = None,
    extra_edges: "tuple[tuple[str, str], ...]" = (),
) -> dict[str, int]:
    """Earliest start time of every operation (time step 0 based).

    ``extra_edges`` lets callers thread in schedule arcs: each ``(u, v)``
    forces ``start(v) >= finish(u)`` exactly like a data edge.
    """
    durations = durations or uniform_durations(dfg)
    _check_durations(dfg, durations)
    extra_preds: dict[str, list[str]] = {}
    for u, v in extra_edges:
        extra_preds.setdefault(v, []).append(u)
    preds_of = {
        op.name: list(dfg.predecessors(op.name))
        + extra_preds.get(op.name, [])
        for op in dfg
    }
    # Insertion order is topological for data edges only; schedule arcs may
    # point backwards in it, so order the combined graph explicitly (Kahn).
    order: list[str] = []
    if extra_edges:
        indegree = {name: len(preds) for name, preds in preds_of.items()}
        succs: dict[str, list[str]] = {name: [] for name in preds_of}
        for name, preds in preds_of.items():
            for p in preds:
                succs[p].append(name)
        ready = [name for name, n in indegree.items() if n == 0]
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(preds_of):
            raise GraphError("extra edges create a dependency cycle")
    else:
        order = list(dfg.op_names())
    start: dict[str, int] = {}
    for name in order:
        start[name] = max(
            (start[p] + durations[p] for p in preds_of[name]), default=0
        )
    return start


def finish_times(
    start: Mapping[str, int], durations: Durations
) -> dict[str, int]:
    """Finish time (exclusive) for every operation given start times."""
    return {name: t + durations[name] for name, t in start.items()}


def schedule_length(
    dfg: DataflowGraph,
    durations: "Durations | None" = None,
    extra_edges: "tuple[tuple[str, str], ...]" = (),
) -> int:
    """Length (in steps) of the unconstrained ASAP schedule.

    With ``extra_edges`` set to the schedule arcs of an order-based
    schedule, this is exactly the latency of the distributed control unit
    for the given duration assignment.
    """
    durations = durations or uniform_durations(dfg)
    start = asap_start_times(dfg, durations, extra_edges)
    return max(
        (start[op.name] + durations[op.name] for op in dfg), default=0
    )


def alap_start_times(
    dfg: DataflowGraph,
    horizon: "int | None" = None,
    durations: "Durations | None" = None,
) -> dict[str, int]:
    """Latest start time of every operation for a given horizon.

    ``horizon`` defaults to the critical-path length, so every op on the
    critical path has equal ASAP and ALAP starts.
    """
    durations = durations or uniform_durations(dfg)
    _check_durations(dfg, durations)
    if horizon is None:
        horizon = schedule_length(dfg, durations)
    cp = schedule_length(dfg, durations)
    if horizon < cp:
        raise GraphError(
            f"horizon {horizon} is shorter than the critical path {cp}"
        )
    start: dict[str, int] = {}
    for op in reversed(dfg.operations()):
        succs = dfg.successors(op.name)
        latest_finish = min(
            (start[s] for s in succs), default=horizon
        )
        start[op.name] = latest_finish - durations[op.name]
    return start


def critical_path(
    dfg: DataflowGraph, durations: "Durations | None" = None
) -> tuple[str, ...]:
    """One longest (duration-weighted) dependency chain, source to sink."""
    durations = durations or uniform_durations(dfg)
    start = asap_start_times(dfg, durations)
    finish = finish_times(start, durations)
    if not len(dfg):
        return ()
    # Walk backwards from the op with the latest finish time.
    current = max(finish, key=lambda n: (finish[n], n))
    path = [current]
    while True:
        preds = dfg.predecessors(current)
        tight = [p for p in preds if finish[p] == start[current]]
        if not tight:
            break
        current = min(tight)  # deterministic choice
        path.append(current)
    path.reverse()
    return tuple(path)


@dataclass(frozen=True)
class GraphProfile:
    """Aggregate statistics of a DFG used in reports and experiments."""

    name: str
    num_ops: int
    num_edges: int
    depth: int
    width: int
    ops_by_class: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        mix = ", ".join(f"{c}:{n}" for c, n in self.ops_by_class)
        return (
            f"{self.name}: {self.num_ops} ops, {self.num_edges} edges, "
            f"depth {self.depth}, width {self.width} ({mix})"
        )


def profile(dfg: DataflowGraph) -> GraphProfile:
    """Compute a :class:`GraphProfile` for a graph (unit durations)."""
    start = asap_start_times(dfg)
    depth = schedule_length(dfg)
    width = 0
    for step in range(depth):
        width = max(width, sum(1 for op in dfg if start[op.name] == step))
    counts: dict[str, int] = {}
    for op in dfg:
        key = op.resource_class.value
        counts[key] = counts.get(key, 0) + 1
    return GraphProfile(
        name=dfg.name,
        num_ops=len(dfg),
        num_edges=len(dfg.edges()),
        depth=depth,
        width=width,
        ops_by_class=tuple(sorted(counts.items())),
    )
