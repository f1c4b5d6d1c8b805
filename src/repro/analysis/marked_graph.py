"""Marked-graph throughput bounds for pipelined execution.

Under overlapped iterations the distributed control unit behaves as a
*marked graph*: operations are transitions, dependence/schedule arcs are
places with zero initial tokens, and each unit chain's wrap-around arc
(last op → first op) carries the one initial token that lets iteration
``k+1`` begin.  The steady-state iteration period of such a system is its
**maximum cycle ratio**

    λ* = max over directed cycles C of  Σ duration(op in C) / Σ tokens(C),

the classic performance bound of timed marked graphs / synchronous data
flow.  This module computes λ* exactly (Lawler's parametric search with
Bellman–Ford positive-cycle detection, then exact re-evaluation on the
extracted critical cycle) and names the critical cycle — telling a
designer *which* resource chain or dependence loop caps the pipeline.

Validated against the cycle-accurate simulator: with fixed durations the
simulated steady-state cycles/iteration equals λ* whenever no token
overruns occur (tests assert it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Mapping, Sequence

from ..binding.binder import BoundDataflowGraph
from ..errors import SimulationError


@dataclass(frozen=True)
class ThroughputBound:
    """The maximum cycle ratio and one critical cycle realizing it."""

    cycles_per_iteration: Fraction
    critical_cycle: tuple[str, ...]

    @property
    def value(self) -> float:
        return float(self.cycles_per_iteration)

    def render(self) -> str:
        loop = " -> ".join(self.critical_cycle + (self.critical_cycle[0],))
        return (
            f"throughput bound {self.cycles_per_iteration} "
            f"cycles/iteration (critical cycle: {loop})"
        )


def _edges_with_tokens(
    bound: BoundDataflowGraph,
) -> list[tuple[str, str, int]]:
    """Execution edges (0 tokens) plus per-chain wrap arcs (1 token)."""
    edges: list[tuple[str, str, int]] = [
        (u, v, 0) for u, v in bound.execution_edges()
    ]
    for _, chain in bound.order.all_chains():
        if chain:
            edges.append((chain[-1], chain[0], 1))
    return edges


def handshake_edges(
    bound: BoundDataflowGraph,
) -> tuple[tuple[str, str, int], ...]:
    """The CC-handshake marked graph of a bound design, as edges.

    Public view of the token-annotated execution graph (data edges and
    schedule arcs with zero tokens, per-chain wrap arcs with one) shared
    by the throughput analysis and the static liveness rule of
    :mod:`repro.verify`.
    """
    return tuple(_edges_with_tokens(bound))


def token_free_cycle(
    edges: Sequence[tuple[str, str, int]],
) -> "tuple[str, ...] | None":
    """A directed cycle all of whose edges carry zero tokens, if any.

    A marked graph is live exactly when no such cycle exists (every
    cycle then holds at least one initial token to fire around).  The
    returned tuple lists the cycle's nodes in order; ``None`` means the
    zero-token subgraph is acyclic.
    """
    succ: dict[str, list[str]] = {}
    for u, v, tokens in edges:
        if tokens == 0:
            succ.setdefault(u, []).append(v)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in succ}
    for u, v, _ in edges:
        color.setdefault(u, WHITE)
        color.setdefault(v, WHITE)
    for root in color:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        path: list[str] = []
        color[root] = GRAY
        path.append(root)
        while stack:
            node, child_index = stack[-1]
            children = succ.get(node, ())
            if child_index < len(children):
                stack[-1] = (node, child_index + 1)
                child = children[child_index]
                if color[child] == GRAY:
                    start = path.index(child)
                    return tuple(path[start:])
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, 0))
                    path.append(child)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def _positive_cycle(
    names: Sequence[str],
    edges: Sequence[tuple[int, int, float, int]],
    durations: Sequence[int],
    lam: float,
) -> "list[int] | None":
    """A cycle with positive weight under w = duration − λ·tokens, if any.

    Longest-path Bellman–Ford from a virtual source; a relaxation in the
    n-th round exposes a positive cycle, recovered by walking predecessor
    pointers.
    """
    n = len(names)
    dist = [0.0] * n
    pred: list[int] = [-1] * n
    pred_edge_last = -1
    for _round in range(n):
        changed = -1
        for u, v, weight, _ in edges:
            candidate = dist[u] + weight
            if candidate > dist[v] + 1e-12:
                dist[v] = candidate
                pred[v] = u
                changed = v
        if changed < 0:
            return None
        pred_edge_last = changed
    # Walk back n steps to land inside the cycle, then collect it.
    node = pred_edge_last
    for _ in range(n):
        node = pred[node]
    cycle = [node]
    walk = pred[node]
    while walk != node:
        cycle.append(walk)
        walk = pred[walk]
    cycle.reverse()
    return cycle


def pipelined_throughput_bound(
    bound: BoundDataflowGraph,
    durations: "Mapping[str, int] | None" = None,
    fast: bool = True,
) -> ThroughputBound:
    """Exact maximum cycle ratio of the pipelined execution graph.

    ``durations`` gives per-op cycle counts; by default every op takes its
    fast (``fast=True``) or worst (``fast=False``) duration.
    """
    names = list(bound.dfg.op_names())
    index = {name: i for i, name in enumerate(names)}
    if durations is None:
        durations = {
            name: bound.duration_cycles(name, fast) for name in names
        }
    dur = [int(durations[name]) for name in names]
    if any(d < 1 for d in dur):
        raise SimulationError("durations must be >= 1 cycle")

    raw_edges = _edges_with_tokens(bound)
    if not any(tokens for _, _, tokens in raw_edges):
        raise SimulationError("no wrap arcs: the graph cannot pipeline")

    def edges_for(lam: float):
        return [
            (index[u], index[v], dur[index[u]] - lam * tokens, tokens)
            for u, v, tokens in raw_edges
        ]

    # Parametric search: the largest λ admitting a positive cycle is λ*.
    low, high = 0.0, float(sum(dur)) + 1.0
    best_cycle: "list[int] | None" = None
    for _ in range(64):
        mid = (low + high) / 2.0
        cycle = _positive_cycle(names, edges_for(mid), dur, mid)
        if cycle is not None:
            best_cycle = cycle
            low = mid
        else:
            high = mid
        if high - low < 1e-9:
            break
    if best_cycle is None:
        # λ = 0 already admits no positive cycle: ratio is the largest
        # single wrap self-loop.
        best_cycle = max(
            ([index[u]] for u, v, t in raw_edges if t and u == v),
            key=lambda c: dur[c[0]],
            default=None,
        )
        if best_cycle is None:
            raise SimulationError("failed to locate a critical cycle")

    # Exact ratio of the extracted cycle.
    cycle_set = best_cycle
    total_duration = sum(dur[i] for i in cycle_set)
    tokens = _cycle_tokens(best_cycle, raw_edges, index)
    ratio = Fraction(total_duration, tokens)
    return ThroughputBound(
        cycles_per_iteration=ratio,
        critical_cycle=tuple(names[i] for i in best_cycle),
    )


def _cycle_tokens(
    cycle: Sequence[int],
    raw_edges: Sequence[tuple[str, str, int]],
    index: Mapping[str, int],
) -> int:
    """Tokens along the cycle (choosing min-token parallel edges)."""
    edge_tokens: dict[tuple[int, int], int] = {}
    for u, v, tokens in raw_edges:
        key = (index[u], index[v])
        edge_tokens[key] = min(edge_tokens.get(key, tokens), tokens)
    total = 0
    for i, node in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        if (node, nxt) not in edge_tokens:
            raise SimulationError("extracted cycle is not closed")
        total += edge_tokens[(node, nxt)]
    if total < 1:
        raise SimulationError(
            "token-free cycle found: the execution graph is cyclic"
        )
    return total
