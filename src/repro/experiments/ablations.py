"""Extension experiments X1–X5 (beyond the paper's tables).

* **X1 psweep** — expected latency vs P for DIST, CENT-SYNC and the
  conventional fixed-clock design: locates the crossover below which a
  telescopic datapath stops paying off at all.
* **X2 sdld** — SD/LD ratio sweep: how aggressive the short delay must be
  for the TAU design to beat the fixed design.
* **X3 opdist** — per-operation controllers ([3]): same latency as DIST,
  area growing with operation count.
* **X4 pipeline** — overlapped-iteration throughput of the distributed
  unit vs the synchronized one.
* **X5 csg** — achieved P of a synthesized bit-level CSG per operand
  distribution (connects the physical substrate to the Bernoulli model).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..analysis.exact_engine import analyze_dist, analyze_sync
from ..analysis.latency import (
    DistLatencyEvaluator,
    duration_table,
    expected_latency,
)
from ..analysis.tables import render_series, render_table
from ..api import synthesize
from ..benchmarks.registry import benchmark
from ..fsm.area import fsm_area, latch_area
from ..fsm.op_controller import derive_all_operation_controllers
from ..fsm.signals import is_op_completion
from ..resources.allocation import ResourceAllocation
from ..resources.bitlevel import ArrayMultiplier
from ..resources.completion import (
    BernoulliCompletion,
    CategoricalCompletion,
)
from ..resources.csg import (
    measure_fast_fraction,
    small_value_distribution,
    sparse_distribution,
    synthesize_multiplier_csg,
    uniform_distribution,
)
from ..sim.runner import pipelined_throughput
from .common import synthesize_benchmark


# ----------------------------------------------------------------------
# X1 — P sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PSweepResult:
    """Expected latency (ns) vs P for the three designs."""

    benchmark: str
    ps: tuple[float, ...]
    dist_ns: tuple[float, ...]
    sync_ns: tuple[float, ...]
    fixed_ns: float

    def crossover_p(self) -> "float | None":
        """Largest swept P at which even DIST loses to the fixed design."""
        for p, ns in zip(reversed(self.ps), reversed(self.dist_ns)):
            if ns > self.fixed_ns:
                return p
        return None

    def render(self) -> str:
        rows = [
            [f"{p:.2f}", f"{d:.1f}", f"{s:.1f}", f"{self.fixed_ns:.1f}"]
            for p, d, s in zip(self.ps, self.dist_ns, self.sync_ns)
        ]
        return (
            f"X1 — P sweep on {self.benchmark} (ns)\n"
            + render_table(["P", "DIST", "CENT-SYNC", "fixed"], rows)
        )


def run_psweep(
    benchmark_name: str = "fir5",
    ps: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
) -> PSweepResult:
    """Sweep the fast-operand probability on one benchmark."""
    res = synthesize_benchmark(benchmark_name)
    tau_ops = res.bound.telescopic_ops()
    clock = res.allocation.clock_period_ns()
    dist_eval = DistLatencyEvaluator(res.bound)
    dist_ns = []
    sync_ns = []
    for p in ps:
        dist_ns.append(expected_latency(dist_eval, tau_ops, p) * clock)
        sync = analyze_sync(res.taubm, duration_table(res.bound, p))
        sync_ns.append(sync.expectation * clock)
    fixed = res.schedule.num_steps * res.allocation.original_clock_period_ns()
    return PSweepResult(
        benchmark=benchmark_name,
        ps=tuple(ps),
        dist_ns=tuple(dist_ns),
        sync_ns=tuple(sync_ns),
        fixed_ns=fixed,
    )


# ----------------------------------------------------------------------
# X2 — SD/LD ratio sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SdLdResult:
    """Expected DIST latency (ns) vs SD, fixed LD."""

    benchmark: str
    p: float
    long_delay_ns: float
    short_delays_ns: tuple[float, ...]
    dist_ns: tuple[float, ...]
    fixed_ns: float

    def render(self) -> str:
        series = render_series(
            f"X2 — SD sweep on {self.benchmark} (LD={self.long_delay_ns}ns, "
            f"P={self.p}); fixed design = {self.fixed_ns:.0f}ns",
            list(zip(self.short_delays_ns, self.dist_ns)),
            unit="ns",
        )
        return series


def run_sdld_sweep(
    benchmark_name: str = "fir5",
    p: float = 0.7,
    long_delay_ns: float = 20.0,
    short_delays_ns: Sequence[float] = (11.0, 13.0, 15.0, 17.0, 19.0),
) -> SdLdResult:
    """Sweep the short delay (clock) for a fixed long delay."""
    entry = benchmark(benchmark_name)
    dist_ns = []
    fixed_ns = 0.0
    for sd in short_delays_ns:
        if not long_delay_ns / 2 <= sd < long_delay_ns:
            raise ValueError(
                f"SD {sd} must lie in [LD/2, LD) for a two-level TAU"
            )
        allocation = ResourceAllocation.parse(
            entry.allocation_spec,
            short_delay_ns=sd,
            long_delay_ns=long_delay_ns,
            fixed_delay_ns=sd,
        )
        res = synthesize(entry.dfg(), allocation)
        tau_ops = res.bound.telescopic_ops()
        cycles = expected_latency(
            DistLatencyEvaluator(res.bound), tau_ops, p
        )
        dist_ns.append(cycles * sd)
        fixed_ns = (
            res.schedule.num_steps * allocation.original_clock_period_ns()
        )
    return SdLdResult(
        benchmark=benchmark_name,
        p=p,
        long_delay_ns=long_delay_ns,
        short_delays_ns=tuple(short_delays_ns),
        dist_ns=tuple(dist_ns),
        fixed_ns=fixed_ns,
    )


# ----------------------------------------------------------------------
# X3 — per-operation controllers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpDistResult:
    """Area of per-operation controllers vs the per-unit DIST unit."""

    benchmark: str
    num_ops: int
    num_units: int
    opdist_comb: float
    opdist_seq: float
    opdist_latches: int
    dist_comb: float
    dist_seq: float
    dist_latches: int

    def render(self) -> str:
        rows = [
            [
                "OP-DIST",
                str(self.num_ops),
                f"{self.opdist_comb:.0f}",
                f"{self.opdist_seq:.0f}",
                str(self.opdist_latches),
            ],
            [
                "DIST",
                str(self.num_units),
                f"{self.dist_comb:.0f}",
                f"{self.dist_seq:.0f}",
                str(self.dist_latches),
            ],
        ]
        return (
            f"X3 — controller granularity on {self.benchmark}\n"
            + render_table(
                ["scheme", "FSMs", "comb", "seq", "latches"], rows
            )
        )


def run_opdist(benchmark_name: str = "diffeq") -> OpDistResult:
    """Compare per-operation and per-unit controller areas."""
    res = synthesize_benchmark(benchmark_name)
    controllers = derive_all_operation_controllers(res.bound)
    comb = 0.0
    seq = 0.0
    latches = 0
    for fsm in controllers.values():
        report = fsm_area(fsm)
        comb += report.combinational_area
        seq += report.sequential_area
        latches += sum(1 for s in fsm.inputs if is_op_completion(s))
    latch_comb, latch_seq = latch_area(latches)
    dist = res.distributed.total_area()
    return OpDistResult(
        benchmark=benchmark_name,
        num_ops=len(controllers),
        num_units=len(res.distributed.unit_names),
        opdist_comb=comb + latch_comb,
        opdist_seq=seq + latch_seq,
        opdist_latches=latches,
        dist_comb=dist.combinational_area,
        dist_seq=dist.sequential_area,
        dist_latches=res.distributed.num_latches,
    )


# ----------------------------------------------------------------------
# X4 — pipelined throughput
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelineResult:
    """Overlapped-iteration throughput, DIST vs CENT-SYNC."""

    benchmark: str
    p: float
    iterations: int
    dist_latency_cycles: int
    dist_throughput_cycles: float
    sync_throughput_cycles: float
    dist_overruns: int

    def render(self) -> str:
        return (
            f"X4 — pipelined throughput on {self.benchmark} "
            f"(P={self.p}, {self.iterations} iterations)\n"
            f"  DIST: latency {self.dist_latency_cycles} cycles, "
            f"throughput {self.dist_throughput_cycles:.2f} cycles/iter "
            f"({self.dist_overruns} token overruns)\n"
            f"  CENT-SYNC: throughput "
            f"{self.sync_throughput_cycles:.2f} cycles/iter"
        )


def run_pipeline(
    benchmark_name: str = "fir5",
    p: float = 0.7,
    iterations: int = 8,
    seed: int = 7,
) -> PipelineResult:
    """Measure steady-state cycles/iteration for both schemes."""
    res = synthesize_benchmark(benchmark_name)
    dist_result, dist_tp = pipelined_throughput(
        res.distributed_system(),
        res.bound,
        BernoulliCompletion(p),
        iterations=iterations,
        seed=seed,
    )
    __, sync_tp = pipelined_throughput(
        res.cent_sync_system(),
        res.bound,
        BernoulliCompletion(p),
        iterations=iterations,
        seed=seed,
    )
    return PipelineResult(
        benchmark=benchmark_name,
        p=p,
        iterations=iterations,
        dist_latency_cycles=dist_result.cycles,
        dist_throughput_cycles=dist_tp,
        sync_throughput_cycles=sync_tp,
        dist_overruns=dist_result.token_overruns,
    )


# ----------------------------------------------------------------------
# X5 — bit-level CSG coverage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CsgSweepResult:
    """Achieved fast-group probability per operand distribution."""

    width: int
    short_delay_ns: float
    rows: tuple[tuple[str, float], ...]

    def render(self) -> str:
        table = render_table(
            ["distribution", "achieved P"],
            [[name, f"{p:.3f}"] for name, p in self.rows],
        )
        return (
            f"X5 — telescopic multiplier CSG coverage ({self.width}-bit, "
            f"SD={self.short_delay_ns:.2f}ns)\n" + table
        )


def run_csg_sweep(width: int = 8, sd_fraction: float = 0.6) -> CsgSweepResult:
    """Measure the P a synthesized multiplier CSG achieves."""
    mult = ArrayMultiplier(width=width)
    sd = mult.base_delay_ns + sd_fraction * (
        mult.worst_delay_ns - mult.base_delay_ns
    )
    csg = synthesize_multiplier_csg(mult, sd)
    distributions = [
        uniform_distribution(width),
        small_value_distribution(width, width // 2),
        small_value_distribution(width, 3 * width // 4),
        sparse_distribution(width, 2),
    ]
    rows = tuple(
        (d.name, measure_fast_fraction(csg, d)) for d in distributions
    )
    return CsgSweepResult(
        width=width, short_delay_ns=csg.short_delay_ns, rows=rows
    )


# ----------------------------------------------------------------------
# X6 — multi-level VCAUs (the paper's §6 generalization)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MultiLevelResult:
    """Latency of a design built on >2-level telescopic units."""

    benchmark: str
    level_delays_ns: tuple[float, ...]
    level_probabilities: tuple[float, ...]
    clock_ns: float
    dist_expected_cycles: float
    sync_expected_cycles: float
    dist_simulated_mean_cycles: float
    max_extension_states: int

    def enhancement(self) -> float:
        """Relative improvement of DIST over the synchronized baseline."""
        return (
            self.sync_expected_cycles - self.dist_expected_cycles
        ) / self.sync_expected_cycles

    def render(self) -> str:
        levels = "/".join(f"{d:g}" for d in self.level_delays_ns)
        return (
            f"X6 — multi-level VCAU ({levels} ns, "
            f"P={list(self.level_probabilities)}) on {self.benchmark}\n"
            f"  DIST expected {self.dist_expected_cycles:.3f} cycles "
            f"(simulated {self.dist_simulated_mean_cycles:.3f}), "
            f"CENT-SYNC expected {self.sync_expected_cycles:.3f} cycles\n"
            f"  enhancement {100 * self.enhancement():.1f}%, deepest "
            f"controller extension chain: {self.max_extension_states} states"
        )


def _multilevel_trial(system, bound, probabilities, seed, trial) -> int:
    """One categorical Monte-Carlo trial (module-level for pickling)."""
    from ..sim.simulator import simulate

    model = CategoricalCompletion(probabilities)
    return simulate(system, bound, model, seed=seed + trial).cycles


def run_multilevel(
    benchmark_name: str = "fir5",
    level_delays_ns: Sequence[float] = (15.0, 30.0, 45.0),
    level_probabilities: Sequence[float] = (0.6, 0.3, 0.1),
    trials: int = 300,
    seed: int = 0,
    workers: "int | None" = 1,
    policy=None,
    checkpoint=None,
) -> MultiLevelResult:
    """Synthesize a benchmark on 3-level VCAUs and compare schemes.

    Exact expectations come from the exact engines over the level
    duration table; a Monte-Carlo run of the cycle-accurate simulator with
    :class:`~repro.resources.completion.CategoricalCompletion` cross-checks
    the distributed number.  ``workers`` parallelizes the Monte-Carlo
    trials (the result is identical for any worker count);
    ``checkpoint`` journals completed trials for byte-identical resume,
    ``policy`` supervises the pool.
    """
    from ..core.ops import ResourceClass

    entry = benchmark(benchmark_name)
    dfg = entry.dfg()
    spec = {
        rc: entry.allocation().count(rc) for rc in dfg.resource_classes()
    }
    allocation = ResourceAllocation.build(
        spec,
        telescopic_classes=(ResourceClass.MULTIPLIER,),
        level_delays_ns=tuple(level_delays_ns),
        fixed_delay_ns=level_delays_ns[0],
    )
    from ..api import synthesize

    result = synthesize(dfg, allocation)
    table = duration_table(result.bound, tuple(level_probabilities))
    evaluator = DistLatencyEvaluator(result.bound)
    dist_expected = analyze_dist(evaluator, table).expectation
    sync_expected = analyze_sync(result.taubm, table).expectation
    from functools import partial

    from ..perf.engine import parallel_map

    system = result.distributed_system()
    run_key = (
        f"multilevel|{benchmark_name}"
        f"|delays={list(level_delays_ns)!r}"
        f"|probs={list(level_probabilities)!r}"
        f"|trials={trials}|seed={seed}"
        if checkpoint is not None
        else ""
    )
    total = sum(
        parallel_map(
            partial(
                _multilevel_trial,
                system,
                result.bound,
                tuple(level_probabilities),
                seed,
            ),
            range(trials),
            workers=workers,
            policy=policy,
            checkpoint=checkpoint,
            run_key=run_key,
        )
    )
    max_extension = max(
        sum(1 for s in fsm.states if s.startswith("SX"))
        for fsm in result.distributed.controllers.values()
    )
    return MultiLevelResult(
        benchmark=benchmark_name,
        level_delays_ns=tuple(level_delays_ns),
        level_probabilities=tuple(level_probabilities),
        clock_ns=allocation.clock_period_ns(),
        dist_expected_cycles=dist_expected,
        sync_expected_cycles=sync_expected,
        dist_simulated_mean_cycles=total / trials,
        max_extension_states=max_extension,
    )


# ----------------------------------------------------------------------
# X9 — end-to-end physical run: bit-level CSG drives the system
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhysicalRunResult:
    """Gate-level CSG → operand-driven simulation → Bernoulli prediction."""

    benchmark: str
    distribution: str
    width: int
    measured_p: float
    simulated_mean_cycles: float
    predicted_mean_cycles: float
    trials: int

    def render(self) -> str:
        return (
            f"X9 — physical run on {self.benchmark} "
            f"({self.width}-bit multiplier CSG, {self.distribution} "
            f"operands, {self.trials} trials)\n"
            f"  measured P = {self.measured_p:.3f}\n"
            f"  simulated mean latency  {self.simulated_mean_cycles:.3f} "
            f"cycles\n"
            f"  Bernoulli(P) prediction {self.predicted_mean_cycles:.3f} "
            f"cycles"
        )


def _physical_trial(
    system, bound, model, dfg, distribution, tau_ops, seed, trial
) -> tuple[int, int, int]:
    """One operand-driven trial: (cycles, fast hits, fast draws)."""
    from ..sim.simulator import simulate
    from ..sim.stimulus import input_streams

    streams = input_streams(dfg, distribution, iterations=1, seed=seed + trial)
    sim = simulate(system, bound, model, seed=seed + trial, inputs=streams)
    hits = 0
    draws = 0
    for op in tau_ops:
        hits += sum(sim.fast_outcomes[op])
        draws += len(sim.fast_outcomes[op])
    return sim.cycles, hits, draws


def run_physical(
    benchmark_name: str = "diffeq",
    width: int = 8,
    sd_fraction: float = 0.6,
    small_bits: "int | None" = 4,
    trials: int = 120,
    seed: int = 0,
    workers: "int | None" = 1,
    policy=None,
    checkpoint=None,
) -> PhysicalRunResult:
    """Drive a design with real operands through a synthesized CSG.

    Closes the loop the paper leaves open: instead of assuming a fast
    probability P, synthesize a safe completion-signal generator for a
    bit-level array multiplier, stream operands from a distribution
    through the value-computing datapath, let the CSG decide fast/slow per
    execution, and compare the observed mean latency against the
    analytic Bernoulli(P) prediction at the *measured* P.
    """
    from functools import partial

    from ..analysis.latency import (
        DistLatencyEvaluator,
        exact_expected_latency,
    )
    from ..perf.engine import parallel_map
    from ..resources.completion import OperandCompletion
    from ..sim.stimulus import small_values, uniform_values

    mult = ArrayMultiplier(width=width)
    sd = mult.base_delay_ns + sd_fraction * (
        mult.worst_delay_ns - mult.base_delay_ns
    )
    csg = synthesize_multiplier_csg(mult, sd)
    result = synthesize_benchmark(benchmark_name)
    model = OperandCompletion(
        {
            unit.name: _TruncatingCsg(csg, width)
            for unit in result.allocation.telescopic_units()
        }
    )
    distribution = (
        small_values(width, small_bits)
        if small_bits is not None
        else uniform_values(width)
    )
    run_key = (
        f"physical|{benchmark_name}|width={width}"
        f"|sd_fraction={sd_fraction!r}|small_bits={small_bits}"
        f"|trials={trials}|seed={seed}"
        if checkpoint is not None
        else ""
    )
    outcomes = parallel_map(
        partial(
            _physical_trial,
            result.distributed_system(),
            result.bound,
            model,
            result.dfg,
            distribution,
            result.bound.telescopic_ops(),
            seed,
        ),
        range(trials),
        workers=workers,
        policy=policy,
        checkpoint=checkpoint,
        run_key=run_key,
    )
    total_cycles = sum(cycles for cycles, _, _ in outcomes)
    fast_hits = sum(hits for _, hits, _ in outcomes)
    fast_draws = sum(draws for _, _, draws in outcomes)
    measured_p = fast_hits / fast_draws if fast_draws else 1.0
    evaluator = DistLatencyEvaluator(result.bound)
    predicted = exact_expected_latency(
        evaluator, result.bound.telescopic_ops(), measured_p
    )
    return PhysicalRunResult(
        benchmark=benchmark_name,
        distribution=distribution.name,
        width=width,
        measured_p=measured_p,
        simulated_mean_cycles=total_cycles / trials,
        predicted_mean_cycles=predicted,
        trials=trials,
    )


class _TruncatingCsg:
    """Adapter: mask datapath values to the CSG's physical bit width.

    Intermediate dataflow values grow beyond the unit width; real hardware
    would truncate at the multiplier inputs, which is what the mask
    models.
    """

    def __init__(self, csg, width: int) -> None:
        self._csg = csg
        self._mask = (1 << width) - 1

    def is_fast(self, a: int, b: int) -> bool:
        return self._csg.is_fast(a & self._mask, b & self._mask)


# ----------------------------------------------------------------------
# X10 — state-encoding ablation for the distributed controllers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EncodingResult:
    """Area of the distributed control unit per state-encoding style."""

    benchmark: str
    rows: tuple[tuple[str, float, float, int], ...]  # style, comb, seq, ffs

    def render(self) -> str:
        table = render_table(
            ["encoding", "comb", "seq", "FFs"],
            [
                [style, f"{comb:.0f}", f"{seq:.0f}", str(ffs)]
                for style, comb, seq, ffs in self.rows
            ],
        )
        return (
            f"X10 — encoding styles for DIST controllers on "
            f"{self.benchmark}\n{table}"
        )


def run_encoding_ablation(
    benchmark_name: str = "diffeq",
    styles: Sequence[str] = ("binary", "gray", "one-hot"),
) -> EncodingResult:
    """Compare binary/gray/one-hot encodings of the DIST-FSM area.

    The classic trade: one-hot buys simple next-state logic with one FF
    per state; minimal binary packs states into ceil(log2 n) FFs at the
    price of wider decode terms.  (One-hot rows use the structural
    term-count model — see :mod:`repro.fsm.area`.)
    """
    res = synthesize_benchmark(benchmark_name)
    rows = []
    for style in styles:
        report = res.distributed.total_area(style)
        rows.append(
            (
                style,
                report.combinational_area,
                report.sequential_area,
                report.num_flip_flops,
            )
        )
    return EncodingResult(benchmark=benchmark_name, rows=tuple(rows))


# ----------------------------------------------------------------------
# X11 — communication-aware binding (the §5 wiring-overhead lever)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommunicationBindingResult:
    """Latency-vs-wiring trade of the two chain-assignment objectives."""

    benchmark: str
    rows: tuple[tuple[str, int, int, float, float], ...]
    # (objective, wires, latches, expected cycles @0.7, seq area)

    def render(self) -> str:
        table = render_table(
            ["objective", "CC wires", "latches", "E[cycles] @P=0.7", "seq"],
            [
                [obj, str(w), str(l), f"{c:.3f}", f"{s:.0f}"]
                for obj, w, l, c, s in self.rows
            ],
        )
        return (
            f"X11 — chain-assignment objectives on {self.benchmark}\n"
            + table
        )


def run_communication_binding(
    benchmark_name: str = "diffeq",
) -> CommunicationBindingResult:
    """Compare latency-first and communication-first chain assignment.

    The communication objective pulls data-dependent operations onto one
    unit, turning completion wires (and their arrival latches) into
    implicit chain order — trading (some) preserved concurrency for
    wiring and sequential area, the §5 overhead the paper names.
    """
    import math

    from ..analysis.latency import DistLatencyEvaluator, exact_expected_latency
    from ..logic.area import AREA_PER_FLIP_FLOP

    entry = benchmark(benchmark_name)
    rows = []
    for objective in ("latency", "communication"):
        res = synthesize(
            entry.dfg(), entry.allocation(), objective=objective
        )
        dcu = res.distributed
        evaluator = DistLatencyEvaluator(res.bound)
        expected = exact_expected_latency(
            evaluator, res.bound.telescopic_ops(), 0.7
        )
        # Sequential area directly from FF counts (state registers of a
        # binary encoding plus arrival latches) — no logic minimization
        # needed for this comparison.
        state_ffs = sum(
            max(1, math.ceil(math.log2(max(2, fsm.num_states))))
            for fsm in dcu.controllers.values()
        )
        seq_area = AREA_PER_FLIP_FLOP * (state_ffs + dcu.num_latches)
        rows.append(
            (
                objective,
                len(dcu.live_nets()),
                dcu.num_latches,
                expected,
                seq_area,
            )
        )
    return CommunicationBindingResult(
        benchmark=benchmark_name, rows=tuple(rows)
    )


# ----------------------------------------------------------------------
# X12 — control switching activity (dynamic-energy proxy)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ActivityResult:
    """Per-iteration control-signal toggles, DIST vs CENT-SYNC."""

    benchmark: str
    p: float
    iterations: int
    dist_toggles_per_iteration: float
    sync_toggles_per_iteration: float
    dist_writes_per_iteration: float
    sync_writes_per_iteration: float
    dist_cycles_per_iteration: float
    sync_cycles_per_iteration: float

    def render(self) -> str:
        return (
            f"X12 — control switching activity on {self.benchmark} "
            f"(P={self.p}, {self.iterations} iterations)\n"
            f"  DIST     : {self.dist_toggles_per_iteration:.1f} "
            f"toggles/iter, {self.dist_writes_per_iteration:.1f} "
            f"writes/iter, {self.dist_cycles_per_iteration:.2f} "
            f"cycles/iter\n"
            f"  CENT-SYNC: {self.sync_toggles_per_iteration:.1f} "
            f"toggles/iter, {self.sync_writes_per_iteration:.1f} "
            f"writes/iter, {self.sync_cycles_per_iteration:.2f} "
            f"cycles/iter"
        )


def run_activity(
    benchmark_name: str = "diffeq",
    p: float = 0.7,
    iterations: int = 8,
    seed: int = 3,
) -> ActivityResult:
    """Steady-state control activity of both schemes.

    Distribution is not free in energy: the per-unit controllers toggle
    completion wires and re-fetch operands independently, so DIST
    typically pays more control toggles per iteration than the batched
    synchronized machine — the energy-side counterpart of its area
    overhead, traded against fewer (stalled) cycles.
    """
    from ..analysis.activity import activity_report
    from ..sim.simulator import simulate

    res = synthesize_benchmark(benchmark_name)
    model = BernoulliCompletion(p)
    dist = simulate(
        res.distributed_system(),
        res.bound,
        model,
        iterations=iterations,
        seed=seed,
        record_trace=True,
    )
    sync = simulate(
        res.cent_sync_system(),
        res.bound,
        model,
        iterations=iterations,
        seed=seed,
        record_trace=True,
    )
    dist_activity = activity_report(dist, "DIST")
    sync_activity = activity_report(sync, "CENT-SYNC")
    return ActivityResult(
        benchmark=benchmark_name,
        p=p,
        iterations=iterations,
        dist_toggles_per_iteration=dist_activity.total_toggles / iterations,
        sync_toggles_per_iteration=sync_activity.total_toggles / iterations,
        dist_writes_per_iteration=dist_activity.register_writes / iterations,
        sync_writes_per_iteration=sync_activity.register_writes / iterations,
        dist_cycles_per_iteration=dist.throughput_cycles(),
        sync_cycles_per_iteration=sync.throughput_cycles(),
    )


# ----------------------------------------------------------------------
# X13 — completion-model comparison (beyond i.i.d. Bernoulli)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompletionModelsResult:
    """Latency of DIST vs CENT-SYNC under different completion models."""

    benchmark: str
    trials: int
    seed: int
    #: (spec encoding, DIST MC mean, CENT-SYNC MC mean, exact DIST
    #: mean or None when the spec has no i.i.d. analytical model)
    rows: tuple[tuple[str, float, float, "float | None"], ...]

    def render(self) -> str:
        table = [
            [
                encoding,
                f"{dist:.3f}",
                f"{sync:.3f}",
                "-" if exact is None else f"{exact:.3f}",
            ]
            for encoding, dist, sync, exact in self.rows
        ]
        return (
            f"X13 — completion models on {self.benchmark} "
            f"(mean cycles, {self.trials} trials, seed {self.seed})\n"
            + render_table(
                ["completion", "DIST", "CENT-SYNC", "exact DIST"], table
            )
        )


def run_completion_models(
    benchmark_name: str = "fig3",
    specs: Sequence[str] = (
        "bernoulli:0.7",
        "per-unit:mul=0.9,*=0.5",
        "markov:0.7,0.5",
    ),
    trials: int = 300,
    seed: int = 0,
) -> CompletionModelsResult:
    """Compare the controller styles across completion models.

    The Bernoulli row reproduces the paper's setup; the per-unit row
    models a datapath whose multipliers are more telescopic than the
    rest; the Markov row adds operand temporal correlation (sticky
    fast/slow streaks), which no i.i.d. analysis captures — its exact
    column is blank and only the Monte-Carlo engines apply.
    """
    from ..errors import ExactAnalysisError
    from ..resources.spec import as_completion_spec

    res = synthesize_benchmark(benchmark_name)
    rows = []
    for text in specs:
        spec = as_completion_spec(text)
        dist = res.monte_carlo_latency(
            p=spec, trials=trials, seed=seed, style="dist"
        ).mean
        sync = res.monte_carlo_latency(
            p=spec, trials=trials, seed=seed, style="cent-sync"
        ).mean
        try:
            exact = res.exact_latency_analysis(spec).expectation
        except ExactAnalysisError:
            exact = None
        rows.append((spec.encode(), dist, sync, exact))
    return CompletionModelsResult(
        benchmark=benchmark_name,
        trials=trials,
        seed=seed,
        rows=tuple(rows),
    )
