"""Exact latency analysis by distribution propagation (no ``2**k`` sweep).

The enumerator in :mod:`repro.analysis.distribution` evaluates the
latency once per fast/slow assignment — ``2**k`` evaluations for ``k``
telescopic operations (65536 on the AR lattice, ~1.7 s per P value).
This module computes the same PMF from one
:data:`~repro.analysis.latency.DurationTable` — each TAU op's
independent ``(cycles, probability)`` rows, built by
:func:`~repro.analysis.latency.duration_table` — with one engine per
scheme.  Bernoulli completion is the two-row case, a per-unit spec gives
per-op rows, multi-level VCAUs give one row per telescope level.

* **Frontier DP (DIST, :func:`analyze_dist`).**  Process nodes in a
  topological order chosen greedily to keep the *live frontier* — nodes
  whose finish time a still-unprocessed successor needs — as narrow as
  possible.  The DP state is the tuple of frontier finish times (packed
  into one integer), conditioned exactly: each node convolves its
  duration rows onto ``max`` of its predecessors' finish times, and
  nodes whose last consumer has been processed are dropped from the
  state (folding sinks into a running maximum).  The frontier width *is*
  the correlation cut: independent branches never multiply states, only
  the simultaneously-live correlated nodes do.  Weakly-connected
  components are solved separately and joined with the
  max-of-independent-CDFs product rule.
* **Step convolution (CENT-SYNC, :func:`analyze_sync`).**  The TAUBM
  partitions operations over time steps and a step runs until its
  slowest TAU op is done, so each step costs the ``max`` of its ops'
  independent durations (a CDF product) and the latency PMF is the
  convolution over steps.

Both methods reproduce the enumerator's PMF exactly wherever enumeration
is feasible (pinned by property tests) and stay in the milliseconds far
beyond the ``2**20``-assignment horizon.  When the correlated frontier
is genuinely too wide (``cut_limit``) or the conditioned state count
explodes (``state_limit``), a structured
:class:`~repro.errors.ExactAnalysisError` reports the detected cut width
instead of silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from functools import reduce
from typing import TYPE_CHECKING

from ..errors import ExactAnalysisError, SimulationError
from .distribution import LatencyDistribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scheduling.schedule import TaubmSchedule
    from .latency import DistLatencyEvaluator, DurationTable

#: One node's duration distribution: ((cycles, probability), ...).
DurationSpec = tuple[tuple[int, float], ...]

#: Maximum live-frontier width before exact DP is declared infeasible.
#: 2**18 packed states is the same order as the old 2**18-assignment
#: enumerations that were still tolerably fast; every paper benchmark
#: has cut width <= 11.
DEFAULT_CUT_LIMIT = 18

#: Hard cap on simultaneously-live conditioned DP states.
DEFAULT_STATE_LIMIT = 4_000_000


@dataclass(frozen=True)
class ExactLatencyAnalysis:
    """The exact PMF plus how (and how hard) it was to compute.

    ``cut_width`` is the widest correlated frontier the DP had to
    condition on (for the step model: the most table ops in one step),
    ``states`` the peak conditioned-state count, and ``components`` the
    number of independently-solved weakly-connected components (for the
    step model: the steps that can take more than one cycle).
    """

    distribution: LatencyDistribution
    method: str
    cut_width: int
    states: int
    components: int

    @property
    def expectation(self) -> float:
        return self.distribution.mean()

    @property
    def variance(self) -> float:
        return self.distribution.variance()

    @property
    def std(self) -> float:
        return self.distribution.std()

    def quantile(self, q: float) -> int:
        return self.distribution.quantile(q)


# -- frontier DP over the execution graph --------------------------------


def _components(
    count: int, preds: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Weakly-connected components, each sorted, listed by least node."""
    adjacency: list[list[int]] = [[] for _ in range(count)]
    for node, plist in enumerate(preds):
        for pred in plist:
            adjacency[node].append(pred)
            adjacency[pred].append(node)
    seen = [False] * count
    components: list[list[int]] = []
    for start in range(count):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = []
        while stack:
            node = stack.pop()
            comp.append(node)
            for other in adjacency[node]:
                if not seen[other]:
                    seen[other] = True
                    stack.append(other)
        components.append(sorted(comp))
    return components


def _plan_component(
    comp: Sequence[int],
    preds: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
) -> tuple[list[tuple[int, tuple[int, ...], tuple[int, ...], bool]], int]:
    """Greedy min-width elimination order for one component.

    Returns ``(plan, width)`` where each plan entry is
    ``(node, predecessor_positions, kept_positions, grows)``: positions
    index the live frontier *before* the step, ``kept_positions`` lists
    the frontier entries that survive (in order), and ``grows`` says the
    node joins the frontier (it still has unprocessed successors) rather
    than folding into the running sink maximum.
    """
    compset = set(comp)
    indegree = {v: len(preds[v]) for v in comp}
    remaining_succs = {v: len(succs[v]) for v in comp}
    ready = sorted(v for v in comp if indegree[v] == 0)
    live: list[int] = []
    plan: list[tuple[int, tuple[int, ...], tuple[int, ...], bool]] = []
    width = 0
    while ready:
        best = None
        best_width = None
        for v in ready:
            drops = sum(1 for u in preds[v] if remaining_succs[u] == 1)
            grows = 1 if succs[v] else 0
            w = len(live) - drops + grows
            if best_width is None or w < best_width:
                best, best_width = v, w
        v = best
        ready.remove(v)
        pred_set = set(preds[v])
        pred_pos = tuple(
            i for i, u in enumerate(live) if u in pred_set
        )
        dropped = {u for u in pred_set if remaining_succs[u] == 1}
        keep_pos = tuple(
            i for i, u in enumerate(live) if u not in dropped
        )
        grows = bool(succs[v])
        plan.append((v, pred_pos, keep_pos, grows))
        live = [u for u in live if u not in dropped]
        if grows:
            live.append(v)
        width = max(width, len(live))
        for u in pred_set:
            remaining_succs[u] -= 1
        for w_node in succs[v]:
            indegree[w_node] -= 1
            if indegree[w_node] == 0:
                ready.append(w_node)
        ready.sort()
    if len(plan) != len(compset):  # pragma: no cover - defensive
        raise ExactAnalysisError(
            "execution graph contains a cycle; exact analysis impossible"
        )
    return plan, width


def _component_pmf(
    plan: Sequence[tuple[int, tuple[int, ...], tuple[int, ...], bool]],
    specs: Sequence[DurationSpec],
    bits: int,
    state_limit: int,
) -> tuple[dict[int, float], int]:
    """Run the packed-integer frontier DP for one planned component."""
    mask = (1 << bits) - 1
    states: dict[int, float] = {0: 1.0}
    peak = 1
    for node, pred_pos, keep_pos, grows in plan:
        rows = specs[node]
        pred_shifts = tuple((i + 1) * bits for i in pred_pos)
        keeps = tuple(
            ((old + 1) * bits, (new + 1) * bits)
            for new, old in enumerate(keep_pos)
        )
        append_shift = (len(keep_pos) + 1) * bits
        new_states: dict[int, float] = {}
        for state, weight in states.items():
            acc = state & mask
            ready = 0
            for shift in pred_shifts:
                finish = (state >> shift) & mask
                if finish > ready:
                    ready = finish
            packed = acc
            for src, dst in keeps:
                packed |= ((state >> src) & mask) << dst
            if grows:
                for cycles, prob in rows:
                    key = packed | ((ready + cycles) << append_shift)
                    new_states[key] = new_states.get(key, 0.0) + (
                        weight * prob
                    )
            else:
                high = packed & ~mask
                for cycles, prob in rows:
                    finish = ready + cycles
                    key = high | (finish if finish > acc else acc)
                    new_states[key] = new_states.get(key, 0.0) + (
                        weight * prob
                    )
        states = new_states
        peak = max(peak, len(states))
        if peak > state_limit:
            raise ExactAnalysisError(
                f"exact frontier DP exceeded {state_limit} conditioned "
                f"states; raise state_limit or allow Monte-Carlo",
                limit=state_limit,
            )
    pmf: dict[int, float] = {}
    for state, weight in states.items():
        cycles = state & mask
        pmf[cycles] = pmf.get(cycles, 0.0) + weight
    return pmf, peak


def _max_of_independent(
    a: dict[int, float], b: dict[int, float]
) -> dict[int, float]:
    """PMF of ``max(A, B)`` for independent A, B via the CDF product."""
    support = sorted(set(a) | set(b))
    cdf_a = 0.0
    cdf_b = 0.0
    prev = 0.0
    out: dict[int, float] = {}
    for cycles in support:
        cdf_a += a.get(cycles, 0.0)
        cdf_b += b.get(cycles, 0.0)
        cdf = cdf_a * cdf_b
        mass = cdf - prev
        if mass != 0.0:
            out[cycles] = mass
        prev = cdf
    return out


def graph_latency_pmf(
    specs: Sequence[DurationSpec],
    preds: Sequence[Sequence[int]],
    *,
    cut_limit: int = DEFAULT_CUT_LIMIT,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> tuple[dict[int, float], int, int, int]:
    """Exact longest-path PMF of a DAG with independent node durations.

    ``specs[i]`` is node ``i``'s ``(cycles, probability)`` distribution
    and ``preds[i]`` its predecessor indices; the latency is
    ``max_i finish_i`` with ``finish_i = dur_i + max(finish_preds)``.
    Returns ``(pmf, cut_width, peak_states, components)``.  Raises
    :class:`~repro.errors.ExactAnalysisError` when the detected cut
    width exceeds ``cut_limit`` (checked *before* any state expansion).
    """
    count = len(specs)
    if count == 0:
        return {0: 1.0}, 0, 1, 0
    succs: list[list[int]] = [[] for _ in range(count)]
    for node, plist in enumerate(preds):
        for pred in plist:
            succs[pred].append(node)
    for slist in succs:
        slist.sort()
    plans = []
    width = 0
    for comp in _components(count, preds):
        plan, comp_width = _plan_component(comp, preds, succs)
        plans.append((comp, plan))
        width = max(width, comp_width)
    if width > cut_limit:
        raise ExactAnalysisError(
            f"correlated frontier of width {width} exceeds the exact "
            f"analysis cut limit {cut_limit}",
            cut_width=width,
            limit=cut_limit,
        )
    peak = 1
    combined: dict[int, float] | None = None
    for comp, plan in plans:
        horizon = sum(max(c for c, _ in specs[v]) for v in comp)
        bits = max(horizon.bit_length(), 1)
        pmf, comp_peak = _component_pmf(plan, specs, bits, state_limit)
        peak = max(peak, comp_peak)
        combined = (
            pmf if combined is None else _max_of_independent(combined, pmf)
        )
    return combined or {0: 1.0}, width, peak, len(plans)


# -- the two engines over one duration table -----------------------------


def _normalize_rows(
    rows: Sequence[tuple[int, float]], context: str
) -> DurationSpec:
    merged: dict[int, float] = {}
    for cycles, prob in rows:
        if prob < 0.0:
            raise SimulationError(
                f"negative probability {prob} for {context}"
            )
        if prob > 0.0:
            merged[cycles] = merged.get(cycles, 0.0) + prob
    if not merged:
        raise SimulationError(f"empty duration distribution for {context}")
    return tuple(sorted(merged.items()))


def _analysis(
    pmf: dict[int, float],
    method: str,
    scheme: str,
    clock_ns: float,
    cut_width: int,
    states: int,
    components: int,
) -> ExactLatencyAnalysis:
    return ExactLatencyAnalysis(
        distribution=LatencyDistribution(
            scheme=scheme, clock_ns=clock_ns, pmf=tuple(sorted(pmf.items()))
        ),
        method=method,
        cut_width=cut_width,
        states=states,
        components=components,
    )


def analyze_dist(
    evaluator: "DistLatencyEvaluator",
    table: "DurationTable",
    *,
    scheme: str = "DIST",
    clock_ns: float = 1.0,
    cut_limit: int = DEFAULT_CUT_LIMIT,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> ExactLatencyAnalysis:
    """Exact DIST latency PMF over a table of independent op durations.

    Operations the table does not name take their fast duration.
    """
    names, preds, fast_dur, _ = evaluator.execution_structure()
    specs = [
        _normalize_rows(table[name], name) if name in table else ((fast, 1.0),)
        for name, fast in zip(names, fast_dur)
    ]
    pmf, width, peak, parts = graph_latency_pmf(
        specs, preds, cut_limit=cut_limit, state_limit=state_limit
    )
    return _analysis(
        pmf, "frontier-dp", scheme, clock_ns, width, peak, parts
    )


def _convolve(a: dict[int, float], b: DurationSpec) -> dict[int, float]:
    out: dict[int, float] = {}
    for cycles, weight in a.items():
        for extra, prob in b:
            key = cycles + extra
            out[key] = out.get(key, 0.0) + weight * prob
    return out


def analyze_sync(
    taubm: "TaubmSchedule",
    table: "DurationTable",
    *,
    scheme: str = "CENT-SYNC",
    clock_ns: float = 1.0,
) -> ExactLatencyAnalysis:
    """Exact TAUBM latency PMF over a table of independent op durations.

    A step runs until its slowest TAU op is done, so it costs the
    ``max`` of its ops' durations (CDF product) and one cycle when the
    table names none of them; the steps partition the operations, so
    the latency PMF is the convolution of the step costs.  This is the
    step model ``TaubmSchedule.cycles_for_durations`` evaluates and the
    emitted CENT-SYNC FSM runs.  Ops absent from the table are fast:
    they finish within their step's first cycle.
    """
    seen: set[str] = set()
    pmf: dict[int, float] = {0: 1.0}
    peak = 1
    width = 0
    extending = 0
    for step in taubm.steps:
        overlap = set(step.tau_ops) & seen
        if overlap:
            raise ExactAnalysisError(
                f"TAU ops {sorted(overlap)} appear in multiple TAUBM "
                f"steps; per-step costs are not independent"
            )
        seen.update(step.tau_ops)
        op_pmfs = [
            dict(_normalize_rows(table[op], op))
            for op in sorted(step.tau_ops)
            if op in table
        ]
        step_pmf = (
            reduce(_max_of_independent, op_pmfs) if op_pmfs else {1: 1.0}
        )
        width = max(width, len(op_pmfs))
        if max(step_pmf) > 1:
            extending += 1
        pmf = _convolve(pmf, tuple(sorted(step_pmf.items())))
        peak = max(peak, len(pmf))
    return _analysis(
        pmf, "step-convolution", scheme, clock_ns, width, peak, extending
    )
