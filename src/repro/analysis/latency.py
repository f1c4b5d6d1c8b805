"""Exact and Monte-Carlo latency analysis (the paper's Table 2 engine).

Two closed execution models (derived in DESIGN.md §2):

* **Distributed** — an operation starts the cycle after all of its data
  predecessors, schedule-arc predecessors and unit predecessor finished,
  so for a fixed duration assignment the latency is the node-weighted
  longest path of the execution graph.
* **Synchronized TAUBM** — each time step runs until its slowest TAU
  operation is done: one cycle, or the slowest op's cycle count.

Exact answers come from :mod:`repro.analysis.exact_engine`, which reads
one :data:`DurationTable` built by :func:`duration_table` from any
i.i.d. completion spec or multi-level probabilities.  Opaque latency
callables are enumerated over all ``2**k`` fast/slow assignments
(:func:`~repro.analysis.distribution.exact_latency_distribution`), and
seeded Monte-Carlo sampling covers what neither can answer.  The
cycle-accurate simulator must agree with both models
assignment-for-assignment; tests enforce it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from ..binding.binder import BoundDataflowGraph
from ..core.analysis import schedule_length
from ..errors import ExactAnalysisError, SimulationError
from ..scheduling.schedule import TaubmSchedule

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from ..resources.spec import CompletionSpec

#: Default limit on exhaustive enumeration (2**20 assignments).
EXACT_ENUMERATION_LIMIT = 20


class DistLatencyEvaluator:
    """Compiled longest-path evaluator for one bound graph.

    Precomputes the topological order and predecessor lists of the
    execution graph once so exhaustive enumeration over ``2**k`` fast/slow
    assignments stays cheap (Table 2's AR-lattice row evaluates 65536
    assignments per P value).
    """

    def __init__(self, bound: BoundDataflowGraph) -> None:
        dfg = bound.dfg
        names = list(dfg.op_names())
        index = {name: i for i, name in enumerate(names)}
        preds: list[set[int]] = [set() for _ in names]
        for u, v in bound.execution_edges():
            preds[index[v]].add(index[u])
        # Kahn order over the combined graph.
        indegree = [len(p) for p in preds]
        succs: list[list[int]] = [[] for _ in names]
        for v, plist in enumerate(preds):
            for u in plist:
                succs[u].append(v)
        ready = [i for i, n in enumerate(indegree) if n == 0]
        order: list[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        self._names = names
        self._order = order
        self._preds = [tuple(p) for p in preds]
        self._fast_dur = [
            bound.duration_cycles(name, fast=True) for name in names
        ]
        self._slow_dur = [
            bound.duration_cycles(name, fast=False) for name in names
        ]

    def __call__(self, fast: Mapping[str, bool]) -> int:
        finish = [0] * len(self._names)
        for i in self._order:
            dur = (
                self._fast_dur[i]
                if fast.get(self._names[i], True)
                else self._slow_dur[i]
            )
            finish[i] = dur + max(
                (finish[p] for p in self._preds[i]), default=0
            )
        return max(finish) if finish else 0

    def for_durations(self, durations: Mapping[str, int]) -> int:
        """Latency for explicit per-op cycle counts (multi-level VCAUs).

        Missing operations default to their fastest duration.
        """
        finish = [0] * len(self._names)
        for i in self._order:
            dur = durations.get(self._names[i], self._fast_dur[i])
            finish[i] = dur + max(
                (finish[p] for p in self._preds[i]), default=0
            )
        return max(finish) if finish else 0

    def execution_structure(
        self,
    ) -> tuple[
        tuple[str, ...],
        tuple[tuple[int, ...], ...],
        tuple[int, ...],
        tuple[int, ...],
    ]:
        """``(names, predecessor_indices, fast_durs, slow_durs)``.

        The compiled execution-graph structure, exposed for the exact
        engine's distribution propagation (:mod:`.exact_engine`).
        """
        return (
            tuple(self._names),
            tuple(self._preds),
            tuple(self._fast_dur),
            tuple(self._slow_dur),
        )


class SyncLatencyEvaluator:
    """Compiled CENT-SYNC (TAUBM) latency evaluator, two-cycle steps.

    The callable mirrors :func:`sync_latency_cycles` — one cycle per
    step plus an extension when any of the step's TAU ops is slow, with
    unmentioned ops defaulting to fast — but carries the schedule so the
    exact engine can convolve steps instead of enumerating.  A slow op
    costs one extension cycle here whatever its level's cycle count;
    the product paths run :func:`~repro.analysis.exact_engine.analyze_sync`
    over the bound graph's :func:`duration_table` instead.
    """

    def __init__(self, taubm: TaubmSchedule) -> None:
        self.taubm = taubm
        self._steps = [
            (step.tau_ops, bool(step.tau_ops)) for step in taubm.steps
        ]

    def __call__(self, fast: Mapping[str, bool]) -> int:
        total = 0
        for tau_ops, has_extension in self._steps:
            total += 1
            if has_extension and not all(
                fast.get(op, True) for op in tau_ops
            ):
                total += 1
        return total


def dist_latency_cycles(
    bound: BoundDataflowGraph, fast: Mapping[str, bool]
) -> int:
    """Distributed latency (cycles) for one fast/slow assignment."""
    durations = {
        op.name: bound.duration_cycles(op.name, fast.get(op.name, True))
        for op in bound.dfg
    }
    return schedule_length(
        bound.dfg, durations, extra_edges=bound.order.schedule_arcs
    )


def sync_latency_cycles(
    taubm: TaubmSchedule, fast: Mapping[str, bool]
) -> int:
    """Synchronized TAUBM latency (cycles) for one assignment."""
    return taubm.cycles_for(
        {op: fast.get(op, True) for op in _tau_ops_of(taubm)}
    )


def _tau_ops_of(taubm: TaubmSchedule) -> tuple[str, ...]:
    return tuple(
        op for step in taubm.steps for op in step.tau_ops
    )


LatencyFn = Callable[[Mapping[str, bool]], int]


def enumerate_assignments(
    tau_ops: Sequence[str],
) -> "itertools.product":
    """All fast/slow assignments of the telescopic operations."""
    return itertools.product((False, True), repeat=len(tau_ops))


def _fast_probabilities(
    tau_ops: Sequence[str], p: "float | Mapping[str, float]"
) -> list[float]:
    """Each enumerated op's fast probability, checked to lie in [0, 1].

    ``p`` is one shared probability or a per-op mapping (the resolved
    marginals of a ``per-unit`` completion spec), which must name every
    op in ``tau_ops``.
    """
    probs = []
    for op in tau_ops:
        if isinstance(p, Mapping):
            if op not in p:
                raise SimulationError(
                    f"per-op probability mapping is missing TAU op {op!r}"
                )
            value = p[op]
        else:
            value = p
        if not 0.0 <= value <= 1.0:
            raise SimulationError(f"P must be in [0, 1], got {value}")
        probs.append(value)
    return probs


def exact_expected_latency(
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    p: "float | Mapping[str, float]",
    limit: int = EXACT_ENUMERATION_LIMIT,
) -> float:
    """Exact expectation: the mean of :func:`exact_latency_distribution`.

    Structured evaluators (:class:`DistLatencyEvaluator`,
    :class:`SyncLatencyEvaluator`) run the exact engine and are feasible
    at any ``k``; opaque callables are enumerated, bounded by ``limit``.
    """
    from .distribution import exact_latency_distribution

    return exact_latency_distribution(
        "expected", latency_fn, tau_ops, p, 1.0, limit
    ).mean()


#: A duration table: TAU op -> ((cycles, probability), ...).
DurationTable = Mapping[str, Sequence[tuple[int, float]]]


def duration_table(
    bound: BoundDataflowGraph,
    completion: (
        "float | str | CompletionSpec | tuple[float, ...] | list[float]"
    ),
) -> dict[str, tuple[tuple[int, float], ...]]:
    """Per-TAU-op ``(cycles, probability)`` rows for the exact engines.

    ``completion`` is an i.i.d. completion spec — a bare fast
    probability, a spec string or a
    :class:`~repro.resources.spec.CompletionSpec` — which gives each op
    its fastest and slowest level at the op's marginal fast probability
    (Bernoulli is the two-row case, ``per-unit`` specs vary it per op),
    or a tuple or list of per-level probabilities for multi-level VCAUs,
    which gives one row per telescope level.  Levels that quantize to the
    same cycle count at the system clock merge (their probabilities
    add).  Temporally correlated specs have no per-execution marginal
    and raise :class:`~repro.errors.ExactAnalysisError` with
    ``reason="correlated"``.
    """
    from ..resources.spec import as_completion_spec

    durations = bound.duration_table
    rows: dict[str, Iterable[tuple[int, float]]] = {}
    if isinstance(completion, (tuple, list)):
        for op in bound.telescopic_ops():
            if len(completion) != len(durations[op]):
                raise SimulationError(
                    f"{len(completion)} level probabilities but unit "
                    f"{bound.binding[op]!r} has {len(durations[op])} levels"
                )
            rows[op] = zip(durations[op], completion)
    else:
        spec = as_completion_spec(completion)
        for op in bound.telescopic_ops():
            q = spec.probability_for(bound.unit_of(op))
            rows[op] = ((durations[op][0], q), (durations[op][-1], 1.0 - q))
    table: dict[str, tuple[tuple[int, float], ...]] = {}
    for op, op_rows in rows.items():
        merged: dict[int, float] = {}
        for cycles, prob in op_rows:
            merged[cycles] = merged.get(cycles, 0.0) + prob
        table[op] = tuple(sorted(merged.items()))
    return table


def monte_carlo_expected_latency(
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    p: "float | Mapping[str, float]",
    trials: int = 4000,
    seed: int = 0,
) -> float:
    """Seeded Monte-Carlo estimate of the expected latency."""
    probs = _fast_probabilities(tau_ops, p)
    rng = random.Random(seed)
    total = 0
    for _ in range(trials):
        fast = {op: rng.random() < q for op, q in zip(tau_ops, probs)}
        total += latency_fn(fast)
    return total / trials


def expected_latency(
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    p: "float | Mapping[str, float]",
    exact_limit: int = EXACT_ENUMERATION_LIMIT,
    trials: int = 4000,
    seed: int = 0,
    *,
    allow_monte_carlo: bool = True,
) -> float:
    """Exact when feasible, Monte-Carlo otherwise.

    Structured evaluators are exact at any ``k`` via the exact engine;
    opaque callables are exact up to ``exact_limit`` enumerated ops.
    With ``allow_monte_carlo=False`` an infeasible exact analysis raises
    :class:`~repro.errors.ExactAnalysisError` instead of silently
    degrading to a sampled estimate.
    """
    if isinstance(latency_fn, (DistLatencyEvaluator, SyncLatencyEvaluator)):
        try:
            return exact_expected_latency(
                latency_fn, tau_ops, p, exact_limit
            )
        except ExactAnalysisError:
            if not allow_monte_carlo:
                raise
            return monte_carlo_expected_latency(
                latency_fn, tau_ops, p, trials, seed
            )
    if len(tau_ops) <= exact_limit:
        return exact_expected_latency(latency_fn, tau_ops, p, exact_limit)
    if not allow_monte_carlo:
        raise ExactAnalysisError(
            f"{len(tau_ops)} telescopic ops exceed the exact enumeration "
            f"limit {exact_limit} and allow_monte_carlo=False",
            limit=exact_limit,
        )
    return monte_carlo_expected_latency(latency_fn, tau_ops, p, trials, seed)


@dataclass(frozen=True)
class SchemeLatency:
    """Best / expected-at-P / worst latency of one controller scheme."""

    scheme: str
    clock_ns: float
    best_cycles: int
    worst_cycles: int
    expected_cycles: Mapping[float, float]

    @property
    def best_ns(self) -> float:
        return self.best_cycles * self.clock_ns

    @property
    def worst_ns(self) -> float:
        return self.worst_cycles * self.clock_ns

    def expected_ns(self, p: float) -> float:
        return self.expected_cycles[p] * self.clock_ns

    def bracket_ns(self) -> str:
        """The paper's ``[best][avg...][worst]`` notation in ns."""
        avgs = ", ".join(
            f"{self.expected_ns(p):.1f}" for p in self.expected_cycles
        )
        return f"[{self.best_ns:.0f}][{avgs}][{self.worst_ns:.0f}]"


@dataclass(frozen=True)
class LatencyComparison:
    """TAUBM-sync vs distributed latency for one benchmark/allocation."""

    benchmark: str
    resources: str
    sync: SchemeLatency
    dist: SchemeLatency
    fixed_design_ns: float

    def enhancement(self, p: float) -> float:
        """Relative improvement of DIST over sync at one P."""
        base = self.sync.expected_ns(p)
        return (base - self.dist.expected_ns(p)) / base

    def enhancement_column(self) -> str:
        """The paper's ``Performance Enhancement`` column."""
        return (
            "["
            + ", ".join(
                f"{100 * self.enhancement(p):.1f}%"
                for p in self.sync.expected_cycles
            )
            + "]"
        )


def scheme_latency(
    scheme: str,
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    clock_ns: float,
    ps: Sequence[float],
    exact_limit: int = EXACT_ENUMERATION_LIMIT,
    trials: int = 4000,
    seed: int = 0,
) -> SchemeLatency:
    """Evaluate best/worst/expected latency of one scheme."""
    best = latency_fn({op: True for op in tau_ops})
    worst = latency_fn({op: False for op in tau_ops})
    expected = {
        p: expected_latency(
            latency_fn, tau_ops, p, exact_limit, trials, seed
        )
        for p in ps
    }
    return SchemeLatency(
        scheme=scheme,
        clock_ns=clock_ns,
        best_cycles=best,
        worst_cycles=worst,
        expected_cycles=expected,
    )


def compare_latencies(
    bound: BoundDataflowGraph,
    taubm: TaubmSchedule,
    ps: Sequence[float] = (0.9, 0.7, 0.5),
    resources: "str | None" = None,
    exact_limit: int = EXACT_ENUMERATION_LIMIT,
    trials: int = 4000,
    seed: int = 0,
) -> LatencyComparison:
    """The full Table-2 comparison for one benchmark/allocation.

    CENT-SYNC's best, worst and expected latencies take each TAU op's
    cycle count from the bound graph, so a slow level spanning more than
    two cycles extends its step by all of them.  ``fixed_design_ns`` is
    the conventional all-fixed-delay design: the same time-step schedule
    clocked at the original (worst-delay) period — the baseline a
    telescopic design must beat at all.
    """
    from .exact_engine import analyze_sync

    tau_ops = bound.telescopic_ops()
    clock = bound.allocation.clock_period_ns()
    sync = SchemeLatency(
        scheme="CENT-SYNC",
        clock_ns=clock,
        best_cycles=taubm.cycles_for_durations(
            {op: bound.duration_cycles(op, True) for op in tau_ops}
        ),
        worst_cycles=taubm.cycles_for_durations(
            {op: bound.duration_cycles(op, False) for op in tau_ops}
        ),
        expected_cycles={
            p: analyze_sync(taubm, duration_table(bound, p)).expectation
            for p in ps
        },
    )
    dist = scheme_latency(
        "DIST",
        DistLatencyEvaluator(bound),
        tau_ops,
        clock,
        ps,
        exact_limit,
        trials,
        seed,
    )
    fixed = (
        taubm.base.num_steps * bound.allocation.original_clock_period_ns()
    )
    return LatencyComparison(
        benchmark=bound.dfg.name,
        resources=resources or _resource_string(bound),
        sync=sync,
        dist=dist,
        fixed_design_ns=fixed,
    )


def _resource_string(bound: BoundDataflowGraph) -> str:
    counts: dict[str, int] = {}
    for unit in bound.allocation:
        symbol = {
            "mul": "*",
            "add": "+",
            "sub": "-",
            "alu": "#",
        }[unit.resource_class.value]
        counts[symbol] = counts.get(symbol, 0) + 1
    return ", ".join(f"{sym}:{n}" for sym, n in counts.items())
