"""Batch simulation runners: Monte-Carlo statistics and throughput."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from ..binding.binder import BoundDataflowGraph
from ..errors import SimulationError
from ..resources.completion import (
    AssignmentCompletion,
    CompletionModel,
)
from ..resources.spec import CompletionSpec, as_completion_spec
from .controllers import ControllerSystem
from .simulator import SimulationResult, simulate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.journal import CheckpointJournal
    from ..runtime.policy import RunPolicy, RunReport


def _percentile(sorted_samples: Sequence[int], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted samples."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    if len(sorted_samples) == 1:
        return float(sorted_samples[0])
    rank = (len(sorted_samples) - 1) * q
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(sorted_samples[low])
    fraction = rank - low
    return (
        sorted_samples[low] * (1.0 - fraction)
        + sorted_samples[high] * fraction
    )


@dataclass(frozen=True)
class LatencyStatistics:
    """Summary of many simulated first-iteration latencies (cycles).

    ``std`` is the *sample* standard deviation (n − 1 denominator; 0.0
    for a single trial); ``p50``/``p95``/``p99`` are
    linear-interpolation percentiles of the latency distribution.
    """

    trials: int
    mean: float
    std: float
    minimum: int
    maximum: int
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    def mean_ns(self, clock_ns: float) -> float:
        return self.mean * clock_ns

    @classmethod
    def from_samples(cls, samples: Sequence[int]) -> "LatencyStatistics":
        """Build the summary from raw latency samples (cycles)."""
        if not samples:
            raise ValueError("latency statistics need >= 1 sample")
        ordered = sorted(samples)
        n = len(ordered)
        mean = sum(ordered) / n
        if n > 1:
            variance = sum((s - mean) ** 2 for s in ordered) / (n - 1)
        else:
            variance = 0.0
        return cls(
            trials=n,
            mean=mean,
            std=math.sqrt(variance),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
        )


def _latency_trial(
    system: ControllerSystem,
    bound: BoundDataflowGraph,
    spec: CompletionSpec,
    base_seed: int,
    trial: int,
) -> int:
    """One Monte-Carlo trial (module-level so process pools can run it)."""
    from ..perf.engine import derive_seed

    result = simulate(
        system,
        bound,
        spec.model(),
        seed=derive_seed(base_seed, trial),
    )
    return result.cycles


def monte_carlo_latency(
    system: ControllerSystem,
    bound: BoundDataflowGraph,
    p: "float | str | CompletionSpec",
    trials: int = 200,
    seed: int = 0,
    *,
    workers: "int | None" = 1,
    policy: "RunPolicy | None" = None,
    report: "RunReport | None" = None,
    checkpoint: "CheckpointJournal | str | None" = None,
    engine: str = "auto",
) -> LatencyStatistics:
    """Simulate ``trials`` runs under the completion spec ``p``.

    ``p`` accepts the historical bare probability (Bernoulli), a spec
    string in the ``--completion`` grammar, or a
    :class:`~repro.resources.spec.CompletionSpec`; see
    :mod:`repro.resources.spec`.

    Per-trial seeds are derived from ``(seed, trial)`` with a stable
    hash (:func:`~repro.perf.engine.derive_seed`), so ``workers=N``
    returns statistics byte-identical to the serial run — parallelism
    changes wall-clock time only.

    ``policy``/``report`` supervise the pool (crash recovery, retries,
    timeouts — see :mod:`repro.runtime`); ``checkpoint`` journals each
    completed trial so an interrupted sweep resumes with statistics
    byte-identical to an uninterrupted run.

    ``engine`` selects the trial executor: ``"scalar"`` runs one
    event-loop simulation per trial, ``"batch"`` requires the
    numpy-vectorized lockstep engine (:mod:`repro.sim.batch` —
    statistics byte-identical to scalar, orders of magnitude faster),
    and ``"auto"`` (the default) uses the batch engine whenever it
    applies (numpy present, <= 63 ops, no policy/checkpoint
    supervision requested) and the scalar path otherwise.
    """
    spec = as_completion_spec(p)
    if engine not in ("auto", "scalar", "batch"):
        raise SimulationError(
            f"engine must be 'auto', 'scalar' or 'batch', got {engine!r}"
        )
    if trials < 1:
        raise SimulationError(
            f"Monte-Carlo latency needs >= 1 trial, got {trials}"
        )
    if engine != "scalar":
        from .batch import BatchUnsupported, batch_supported

        supervised = policy is not None or checkpoint is not None
        if engine == "batch" and supervised:
            raise SimulationError(
                "engine='batch' is incompatible with policy/checkpoint "
                "supervision; use engine='auto' or 'scalar'"
            )
        if not supervised and batch_supported(system, bound):
            from ..runtime.policy import record_event
            from .batch import batch_monte_carlo_latency

            try:
                stats = batch_monte_carlo_latency(
                    system, bound, spec, trials, seed
                )
            except BatchUnsupported:
                if engine == "batch":
                    raise
            else:
                record_event(
                    report,
                    "batch-engine",
                    f"{trials} Monte-Carlo trials vectorized in lockstep "
                    f"(statistics byte-identical to scalar)",
                )
                return stats
        elif engine == "batch":
            raise SimulationError(
                "engine='batch' requires numpy and <= 63 operations"
            )
    from ..perf.engine import parallel_map

    # fingerprinting costs a serialization pass; only pay it when a
    # journal actually needs the run key
    run_key = (
        _monte_carlo_run_key(system, bound, spec, trials, seed)
        if checkpoint is not None
        else ""
    )
    samples = parallel_map(
        partial(_latency_trial, system, bound, spec, seed),
        range(trials),
        workers=workers,
        policy=policy,
        report=report,
        checkpoint=checkpoint,
        run_key=run_key,
    )
    return LatencyStatistics.from_samples(samples)


def _monte_carlo_run_key(
    system: ControllerSystem,
    bound: BoundDataflowGraph,
    spec: CompletionSpec,
    trials: int,
    seed: int,
) -> str:
    """Everything that determines a Monte-Carlo sweep's samples.

    Deliberately excludes ``workers`` — parallel and serial runs are
    byte-identical, so either may resume the other's journal.  The
    spec's :meth:`~repro.resources.spec.CompletionSpec.key_fragment`
    renders plain Bernoulli as the legacy ``p={p!r}`` fragment, so
    journals written before completion specs existed resume warm.
    """
    from ..perf.cache import design_fingerprint, system_fingerprint

    return (
        f"monte-carlo|{design_fingerprint(bound)}"
        f"|{system_fingerprint(system)}|{spec.key_fragment()}"
        f"|trials={trials}|seed={seed}"
    )


def simulate_assignment(
    system: ControllerSystem,
    bound: BoundDataflowGraph,
    fast: Mapping[str, bool],
    **kwargs,
) -> SimulationResult:
    """Simulate one exact fast/slow scenario (for analytic cross-checks)."""
    fast_map = {op.name: True for op in bound.dfg}
    fast_map.update(fast)
    return simulate(system, bound, AssignmentCompletion(fast_map), **kwargs)


def pipelined_throughput(
    system: ControllerSystem,
    bound: BoundDataflowGraph,
    completion: CompletionModel,
    iterations: int = 8,
    seed: int = 0,
    inputs: "Mapping[str, Sequence[int]] | None" = None,
) -> tuple[SimulationResult, float]:
    """Back-to-back iteration run; returns (result, cycles/iteration).

    The wrap-around transitions of Algorithm 1 controllers let independent
    units begin iteration ``k+1`` while others still finish ``k`` — the
    throughput gain over the single-iteration latency quantifies the
    concurrency the distributed structure preserves across iterations (an
    extension beyond the paper's Table 2).
    """
    result = simulate(
        system,
        bound,
        completion,
        iterations=iterations,
        seed=seed,
        inputs=inputs,
    )
    return result, result.throughput_cycles()
