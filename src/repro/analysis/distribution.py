"""Exact latency distributions (beyond Table 2's expectations).

Table 2 reports expected latencies; designers sizing real-time budgets
need the whole distribution — e.g. "which latency is met 99% of the
time?".  Because the per-op durations are independent draws, the exact
probability mass function over cycle counts is computable: the exact
engine (:mod:`repro.analysis.exact_engine`) propagates it for the
structured evaluators, and :func:`exact_latency_distribution` is the one
``2**k`` enumerator for opaque latency callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from ..errors import SimulationError
from .latency import (
    EXACT_ENUMERATION_LIMIT,
    LatencyFn,
    enumerate_assignments,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from ..resources.spec import CompletionSpec


@dataclass(frozen=True)
class LatencyDistribution:
    """Exact PMF of a scheme's latency in cycles."""

    scheme: str
    clock_ns: float
    pmf: tuple[tuple[int, float], ...]  # (cycles, probability), ascending

    def __post_init__(self) -> None:
        total = sum(p for _, p in self.pmf)
        if abs(total - 1.0) > 1e-6:
            raise SimulationError(
                f"latency PMF sums to {total}, expected 1"
            )

    # -- moments -----------------------------------------------------------
    def mean(self) -> float:
        return sum(c * p for c, p in self.pmf)

    def variance(self) -> float:
        mean = self.mean()
        return sum(p * (c - mean) ** 2 for c, p in self.pmf)

    def std(self) -> float:
        return math.sqrt(self.variance())

    # -- order statistics -----------------------------------------------------
    def cdf(self) -> tuple[tuple[int, float], ...]:
        """Running ``(cycles, P(latency <= cycles))`` pairs, ascending.

        The single accumulation both order statistics are defined on —
        ``quantile`` and ``probability_at_most`` read the same curve.
        """
        acc = 0.0
        pairs = []
        for cycles, p in self.pmf:
            acc += p
            pairs.append((cycles, acc))
        return tuple(pairs)

    def quantile(self, q: float) -> int:
        """Smallest cycle count whose CDF reaches ``q``."""
        if not 0.0 < q <= 1.0:
            raise SimulationError(f"quantile must be in (0, 1], got {q}")
        for cycles, acc in self.cdf():
            if acc >= q - 1e-12:
                return cycles
        return self.pmf[-1][0]

    def probability_at_most(self, cycles: int) -> float:
        """P(latency <= cycles) — the timing-budget yield."""
        result = 0.0
        for c, acc in self.cdf():
            if c > cycles:
                break
            result = acc
        return result

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.pmf)

    # -- rendering -----------------------------------------------------------
    def histogram(self, width: int = 40) -> str:
        """ASCII histogram, one row per cycle count."""
        peak = max(p for _, p in self.pmf)
        lines = [f"{self.scheme} latency distribution (cycles):"]
        for cycles, p in self.pmf:
            bar = "#" * max(1, round(width * p / peak)) if p > 0 else ""
            lines.append(
                f"  {cycles:4d} ({cycles * self.clock_ns:6.1f} ns) "
                f"{p:7.4f} {bar}"
            )
        return "\n".join(lines)


def exact_latency_distribution(
    scheme: str,
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    p: "float | Mapping[str, float]",
    clock_ns: float,
    limit: int = EXACT_ENUMERATION_LIMIT,
) -> LatencyDistribution:
    """Exact latency PMF under independent Bernoulli fast outcomes.

    ``p`` is one shared fast probability or a per-op mapping (the
    resolved marginals of a ``per-unit`` completion spec).  Structured
    evaluators run the exact engine on the two-row duration table of
    ``tau_ops`` and are feasible at any ``k``: a
    ``DistLatencyEvaluator`` reads each op's fast and slow cycles, a
    ``SyncLatencyEvaluator`` its binary one-or-two-cycle step.  Opaque
    callables — and structured ones whose correlated cut is too wide —
    are enumerated over all ``2**k`` assignments, bounded by ``limit``.
    """
    from ..errors import ExactAnalysisError
    from .exact_engine import analyze_dist, analyze_sync
    from .latency import (
        DistLatencyEvaluator,
        SyncLatencyEvaluator,
        _fast_probabilities,
    )

    probs = _fast_probabilities(tau_ops, p)
    try:
        if isinstance(latency_fn, DistLatencyEvaluator):
            names, _, fast, slow = latency_fn.execution_structure()
            cycles = dict(zip(names, zip(fast, slow)))
            table = {
                op: ((cycles[op][0], q), (cycles[op][1], 1.0 - q))
                for op, q in zip(tau_ops, probs)
                if op in cycles
            }
            return analyze_dist(
                latency_fn, table, scheme=scheme, clock_ns=clock_ns
            ).distribution
        if isinstance(latency_fn, SyncLatencyEvaluator):
            table = {
                op: ((1, q), (2, 1.0 - q)) for op, q in zip(tau_ops, probs)
            }
            return analyze_sync(
                latency_fn.taubm, table, scheme=scheme, clock_ns=clock_ns
            ).distribution
    except ExactAnalysisError:
        if len(tau_ops) > limit:
            raise
        # cut too wide for the engine but enumeration still feasible
    if len(tau_ops) > limit:
        raise SimulationError(
            f"{len(tau_ops)} telescopic ops exceed the exact enumeration "
            f"limit {limit}; use monte_carlo_expected_latency"
        )
    mass: dict[int, float] = {}
    for values in enumerate_assignments(tau_ops):
        weight = 1.0
        for q, is_fast in zip(probs, values):
            weight *= q if is_fast else 1.0 - q
        if weight == 0.0:
            continue
        cycles = latency_fn(dict(zip(tau_ops, values)))
        mass[cycles] = mass.get(cycles, 0.0) + weight
    return LatencyDistribution(
        scheme=scheme,
        clock_ns=clock_ns,
        pmf=tuple(sorted(mass.items())),
    )


@dataclass(frozen=True)
class DistributionComparison:
    """DIST vs CENT-SYNC latency distributions at one completion model.

    ``p`` is the shared float fast probability for Bernoulli runs and
    the completion spec's description otherwise.
    """

    benchmark: str
    p: "float | str"
    dist: LatencyDistribution
    sync: LatencyDistribution

    def render(self) -> str:
        lines = [
            f"latency distributions for {self.benchmark} at P={self.p}",
            self.dist.histogram(),
            self.sync.histogram(),
            (
                f"P99 budget: DIST {self.dist.quantile(0.99)} cycles vs "
                f"CENT-SYNC {self.sync.quantile(0.99)} cycles"
            ),
        ]
        return "\n".join(lines)

    def stochastic_dominance_holds(self) -> bool:
        """Whether DIST's CDF dominates SYNC's at every cycle count.

        First-order stochastic dominance is the distribution-level form of
        the per-assignment dominance theorem: for every budget ``c``,
        P(DIST <= c) >= P(SYNC <= c).
        """
        budgets = set(self.dist.support) | set(self.sync.support)
        return all(
            self.dist.probability_at_most(c)
            >= self.sync.probability_at_most(c) - 1e-12
            for c in budgets
        )


def compare_distributions(
    bound, taubm, p: "float | str | CompletionSpec" = 0.7
) -> DistributionComparison:
    """Exact distribution comparison for one synthesized design.

    ``p`` accepts any i.i.d. completion spec (float, spec string, or
    :class:`~repro.resources.spec.CompletionSpec`); both schemes read
    one :func:`~repro.analysis.latency.duration_table`, so CENT-SYNC
    steps take the bound graph's slow cycle counts.  Correlated specs
    raise :class:`~repro.errors.ExactAnalysisError` — use the
    Monte-Carlo engines for those.
    """
    from ..resources.spec import BernoulliSpec, as_completion_spec
    from .exact_engine import analyze_dist, analyze_sync
    from .latency import DistLatencyEvaluator, duration_table

    spec = as_completion_spec(p)
    table = duration_table(bound, spec)
    clock = bound.allocation.clock_period_ns()
    return DistributionComparison(
        benchmark=bound.dfg.name,
        p=spec.p if isinstance(spec, BernoulliSpec) else spec.describe(),
        dist=analyze_dist(
            DistLatencyEvaluator(bound), table, clock_ns=clock
        ).distribution,
        sync=analyze_sync(taubm, table, clock_ns=clock).distribution,
    )
