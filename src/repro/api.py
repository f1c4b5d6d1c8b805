"""High-level one-call synthesis API.

:func:`synthesize` runs the complete flow of the paper on one dataflow
graph: order-based scheduling under the allocation, binding, TAUBM
annotation, and derivation of the distributed control unit plus the
centralized comparison FSMs.  The returned :class:`SynthesisResult` exposes
every intermediate artifact so scripts can go straight from a DFG to
simulation, latency analysis, area reports or Verilog.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .faults.campaign import FaultCampaignReport
    from .perf.cache import SynthesisCache
    from .resources.spec import CompletionSpec
    from .sim.runner import LatencyStatistics

from .analysis.latency import (
    DistLatencyEvaluator,
    LatencyComparison,
    compare_latencies,
)
from .binding.binder import BoundDataflowGraph
from .control.distributed import DistributedControlUnit
from .core.dfg import DataflowGraph
from .errors import SimulationError
from .fsm.model import FSM
from .fsm.product import build_cent_fsm
from .fsm.taubm import derive_cent_sync_fsm
from .resources.allocation import ResourceAllocation
from .scheduling.schedule import OrderSchedule, TaubmSchedule, TimeStepSchedule
from .sim.controllers import ControllerSystem, single_fsm_system


@dataclass(frozen=True)
class SynthesisResult:
    """Every artifact of one end-to-end synthesis run."""

    dfg: DataflowGraph
    allocation: ResourceAllocation
    schedule: TimeStepSchedule
    order: OrderSchedule
    bound: BoundDataflowGraph
    taubm: TaubmSchedule
    distributed: DistributedControlUnit

    @cached_property
    def cent_sync_fsm(self) -> FSM:
        """The synchronized centralized FSM (Fig. 4(b) expansion)."""
        return derive_cent_sync_fsm(self.taubm, self.bound)

    @cached_property
    def cent_fsm(self) -> FSM:
        """The full centralized product FSM (Fig. 4(a) expansion)."""
        return build_cent_fsm(self.bound)

    @cached_property
    def _dist_evaluator(self) -> DistLatencyEvaluator:
        """The bound graph's longest-path evaluator, compiled once."""
        return DistLatencyEvaluator(self.bound)

    def distributed_system(self) -> ControllerSystem:
        """Executable distributed controllers for the simulator."""
        return self.distributed.system()

    def cent_sync_system(self) -> ControllerSystem:
        """Executable synchronized centralized controller."""
        return single_fsm_system(self.cent_sync_fsm, key="cent-sync")

    def cent_system(self) -> ControllerSystem:
        """Executable centralized product controller."""
        return single_fsm_system(self.cent_fsm, key="cent")

    def latency_comparison(
        self, ps: Sequence[float] = (0.9, 0.7, 0.5), **kwargs
    ) -> LatencyComparison:
        """The Table-2 latency comparison for this design."""
        return compare_latencies(self.bound, self.taubm, ps=ps, **kwargs)

    def monte_carlo_latency(
        self,
        p: "float | str | CompletionSpec" = 0.7,
        trials: int = 200,
        seed: int = 0,
        style: str = "dist",
        workers: "int | None" = 1,
        policy=None,
        report=None,
        checkpoint=None,
        engine: str = "auto",
    ) -> "LatencyStatistics":
        """Monte-Carlo first-iteration latency of one controller style.

        ``p`` is a bare fast probability (Bernoulli), a spec string such
        as ``per-unit:mul=0.9,*=0.5`` or ``markov:0.7,0.5``, or a
        :class:`~repro.resources.spec.CompletionSpec`.
        ``style`` is ``"dist"``, ``"cent-sync"`` or ``"cent"``;
        ``workers`` fans trials out over the parallel engine
        (:mod:`repro.perf`) with byte-identical statistics.
        ``policy``/``report`` supervise the pool and ``checkpoint``
        journals completed trials for byte-identical resume — see
        :mod:`repro.runtime`.  ``engine`` picks the trial executor
        (``"auto"``, ``"scalar"`` or ``"batch"`` — see
        :func:`repro.sim.runner.monte_carlo_latency`).
        """
        from .sim.runner import monte_carlo_latency

        return monte_carlo_latency(
            self.system(style),
            self.bound,
            p=p,
            trials=trials,
            seed=seed,
            workers=workers,
            policy=policy,
            report=report,
            checkpoint=checkpoint,
            engine=engine,
        )

    def exact_latency_analysis(
        self,
        p: "float | str | CompletionSpec" = 0.7,
        style: str = "dist",
    ):
        """Exact first-iteration latency distribution, analytically.

        Runs the polynomial-time exact engine
        (:mod:`repro.analysis.exact_engine`) instead of ``2**k``
        enumeration over the bound graph's
        :func:`~repro.analysis.latency.duration_table`: per-node
        finish-time convolution for the distributed scheme, per-step
        slowest-op convolution for the synchronized baseline.  ``p``
        accepts i.i.d. completion specs (Bernoulli or heterogeneous
        per-unit); temporally correlated specs (``markov:...``) raise
        :class:`~repro.errors.ExactAnalysisError` with
        ``reason="correlated"`` — use the Monte-Carlo engines for
        those.  Returns an
        :class:`~repro.analysis.exact_engine.ExactLatencyAnalysis`
        carrying the full PMF plus the engine diagnostics (correlation
        cut width, DP state count).  ``style`` is ``"dist"`` or
        ``"cent-sync"`` (the unsynchronized product FSM has no
        analytical model).
        """
        from .analysis.exact_engine import analyze_dist, analyze_sync
        from .analysis.latency import duration_table

        table = duration_table(self.bound, p)
        clock_ns = self.allocation.clock_period_ns()
        if style == "dist":
            return analyze_dist(
                self._dist_evaluator, table, clock_ns=clock_ns
            )
        if style == "cent-sync":
            return analyze_sync(self.taubm, table, clock_ns=clock_ns)
        raise SimulationError(
            f"unknown analytical style {style!r}; choose 'dist' or "
            f"'cent-sync'"
        )

    def system(self, style: str = "dist") -> ControllerSystem:
        """Executable controller system by style name."""
        if style == "dist":
            return self.distributed_system()
        if style == "cent-sync":
            return self.cent_sync_system()
        if style == "cent":
            return self.cent_system()
        raise SimulationError(
            f"unknown controller style {style!r}; choose 'dist', "
            f"'cent-sync' or 'cent'"
        )

    def model_check(
        self,
        name: "str | None" = None,
        max_states: int = 200_000,
        max_frontier: int = 100_000,
    ):
        """Model-check the composed distributed controller network.

        Explores every reachable state of the network under all
        realizable telescopic completion schedules and proves the
        MC-DEAD (no reachable deadlock), MC-RACE (no completion-pulse
        race) and MC-REF (refinement against the CENT-SYNC
        specification) rule families — see
        :mod:`repro.verify.modelcheck`.  Returns a
        :class:`~repro.verify.modelcheck.ModelCheckResult` whose report
        is byte-stable and whose counterexamples replay in the
        simulator.
        """
        from .verify.modelcheck import check_result

        return check_result(
            self,
            name=name,
            max_states=max_states,
            max_frontier=max_frontier,
        )

    def fault_campaign(
        self,
        trials: int = 100,
        seed: int = 0,
        p: "float | str | CompletionSpec" = 0.7,
        styles: Sequence[str] = ("dist", "cent-sync"),
        workers: "int | None" = 1,
        checkpoint=None,
    ) -> "FaultCampaignReport":
        """Run a seeded fault-injection campaign on this design.

        Sweeps ``trials`` deterministic faults per controller style and
        classifies each run as detected / tolerated / silent — see
        :mod:`repro.faults`.  The report compares the distributed unit's
        vulnerability against the synchronized centralized baseline.
        ``workers`` parallelizes trials without changing the report and
        ``checkpoint`` journals completed trials for byte-identical
        resume.
        """
        from .faults.campaign import run_campaign

        return run_campaign(
            self, trials=trials, seed=seed, p=p, styles=styles,
            workers=workers, checkpoint=checkpoint,
        )


def synthesize(
    dfg: DataflowGraph,
    allocation: "ResourceAllocation | str",
    scheduler: str = "list",
    objective: str = "latency",
    *,
    cache: "SynthesisCache | None" = None,
) -> SynthesisResult:
    """Run the complete paper flow on a dataflow graph.

    This is the canned synthesis pipeline (:mod:`repro.pipeline`): the
    ``validate``, ``schedule``, ``order``, ``bind``, ``taubm`` and
    ``distributed`` passes run in order over a typed artifact store and
    the result is assembled from the store.  Use
    :func:`repro.pipeline.run_synthesis_pipeline` directly for the run
    manifest, partial runs or custom passes — artifacts are identical
    either way.

    ``allocation`` may be a :class:`ResourceAllocation` or a spec string
    such as ``"mul:2T,add:1,sub:1"`` (``T`` = telescopic class).
    Multi-level VCAU allocations (built with ``level_delays_ns``) are
    supported throughout: Algorithm 1 chains extension states, the
    synchronized baseline extends steps until every unit reports done.

    ``scheduler`` names an entry of the scheduler registry: ``"list"``
    (priority list scheduling, the default), ``"exact"`` (branch-and-
    bound minimum latency; falls back to the list schedule with a
    :class:`~repro.errors.SchedulingFallbackWarning` and a manifest
    diagnostic when the search blows up), ``"force-directed"`` (latency-
    constrained concurrency balancing), or the unconstrained ``"asap"``
    / ``"alap"`` (rejected when their schedule exceeds the allocation).
    ``objective`` selects the chain-assignment heuristic (``"latency"``
    or ``"communication"`` — see
    :func:`repro.scheduling.order_based.order_based_schedule`).

    ``cache`` is a :class:`~repro.perf.cache.SynthesisCache`; passes
    whose inputs and options fingerprint-match a previous run are
    rehydrated from it instead of recomputed.
    """
    from .pipeline.manager import synthesize_design

    return synthesize_design(
        dfg, allocation, scheduler, objective, cache=cache
    )
