"""The ``repro bench`` harness: measure and persist the perf trajectory.

Times the library's hot paths on registered benchmarks — end-to-end
synthesis, one cycle-accurate simulation, Monte-Carlo latency serial vs
parallel, the batch Monte-Carlo engine and the exact latency engine —
and renders the measurements as a JSON document with deterministic
structure (sorted keys, fixed rounding, stable section names).
``BENCH_core.json`` at the repository root is the committed
trajectory: every perf-affecting PR regenerates it, so a regression
shows up as a diff.

The *timing* values naturally vary run to run; every *result* value in
the document (cycle counts, expectations, Monte-Carlo means) is
deterministic and doubles as a cross-machine golden check.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..benchmarks.registry import core_benchmark_names
from ..resources.spec import BernoulliSpec, CompletionSpec, as_completion_spec
from .engine import resolve_workers

#: benchmarks the core bench sweeps — every fixed registered design,
#: straight from the registry (the single source of the name list); the
#: AR-lattice row has the most TAU ops (16) and the fdct/ewf rows the
#: largest graphs
CORE_BENCHMARKS = core_benchmark_names()

#: extra Monte-Carlo trials the vectorized engine is timed over — the
#: lockstep engine's throughput only shows at batch scale
BATCH_TRIALS_FACTOR = 50


def _time_call(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall time and the (last) return value."""
    best = float("inf")
    value: object = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best, value


def _round(seconds: float) -> float:
    return round(seconds, 6)


@dataclass(frozen=True)
class BenchReport:
    """One full bench run, renderable as byte-stable JSON."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    def render(self) -> str:
        lines = [
            f"repro bench — trials={self.data['trials']}, "
            f"workers={self.data['workers']}, seed={self.data['seed']}"
            + (" (quick)" if self.data["quick"] else "")
        ]
        for name in sorted(self.data["benchmarks"]):
            row = self.data["benchmarks"][name]
            mc = row["monte_carlo"]
            lines.append(
                f"  {name}: synth {1e3 * row['synthesize_s']:.1f} ms, "
                f"sim {1e3 * row['simulate_s']:.2f} ms, "
                f"MC {mc['serial_s']:.3f} s serial / "
                f"{mc['parallel_s']:.3f} s @ {self.data['workers']} "
                f"workers (×{mc['speedup']:.2f}), "
                f"mean {mc['mean_cycles']:.3f} cycles"
            )
            engine = row.get("exact_engine")
            if engine is not None:
                lines.append(
                    f"    exact engine {engine['mean_cycles']:.4f} cycles "
                    f"in {1e3 * engine['seconds']:.2f} ms "
                    f"({engine['method']}, cut {engine['cut_width']}, "
                    f"{engine['states']} states)"
                )
            batch = row.get("batch_mc")
            if batch is not None:
                lines.append(
                    f"    batch MC {batch['trials']} trials in "
                    f"{batch['seconds']:.3f} s "
                    f"({batch['trials_per_s']:,.0f} trials/s, "
                    f"×{batch['speedup_vs_serial']:.0f} vs serial)"
                )
        return "\n".join(lines)


def _bench_row(
    quick: bool,
    trials: int,
    workers: int,
    seed: int,
    p: "float | str | CompletionSpec",
    repeats: int,
    cache_dir: "str | None",
    name: str,
) -> dict:
    """Time the core flows on one benchmark (pool-safe).

    Module-level and fully determined by its arguments, so bench rows
    can be journaled by :func:`~repro.perf.engine.parallel_map`'s
    ``checkpoint`` like any other shard.
    """
    from ..analysis.exact_engine import analyze_dist
    from ..analysis.latency import DistLatencyEvaluator, duration_table
    from ..api import synthesize
    from ..benchmarks.registry import benchmark
    from ..perf.cache import SynthesisCache
    from ..sim.batch import BatchSimulator, batch_supported
    from ..sim.runner import monte_carlo_latency
    from ..sim.simulator import simulate

    spec = as_completion_spec(p)
    cache = SynthesisCache(cache_dir) if cache_dir else None
    entry = benchmark(name)
    dfg = entry.dfg()
    allocation = entry.allocation()
    synth_s, result = _time_call(
        lambda: synthesize(dfg, allocation, cache=cache), repeats
    )
    system = result.distributed_system()
    # a fresh model per call: stateful models (Markov) must not carry
    # history from one timing repeat into the next
    sim_s, sim = _time_call(
        lambda: simulate(system, result.bound, spec.model(), seed=seed),
        max(repeats, 3),
    )
    serial_s, serial_stats = _time_call(
        lambda: monte_carlo_latency(
            system, result.bound, p=spec, trials=trials, seed=seed,
            workers=1, engine="scalar",
        ),
        repeats,
    )
    parallel_s, parallel_stats = _time_call(
        lambda: monte_carlo_latency(
            system, result.bound, p=spec, trials=trials, seed=seed,
            workers=workers, engine="scalar",
        ),
        repeats,
    )
    if parallel_stats != serial_stats:  # pragma: no cover - invariant
        raise AssertionError(
            f"parallel Monte-Carlo diverged from serial on {name!r}"
        )
    row = {
        "synthesize_s": _round(synth_s),
        "simulate_s": _round(sim_s),
        "simulated_cycles": sim.cycles,
        "monte_carlo": {
            "completion": spec.encode(),
            "trials": trials,
            "serial_s": _round(serial_s),
            "parallel_s": _round(parallel_s),
            "speedup": round(serial_s / max(parallel_s, 1e-9), 3),
            "mean_cycles": round(serial_stats.mean, 6),
            "p95_cycles": round(serial_stats.p95, 6),
        },
    }
    if not spec.correlated:
        # correlated specs have no i.i.d. analytical model, so the exact
        # section is omitted from the row entirely
        evaluator = DistLatencyEvaluator(result.bound)
        table = duration_table(result.bound, spec)
        analysis_s, analysis = _time_call(
            lambda: analyze_dist(evaluator, table), repeats
        )
        row["exact_engine"] = {
            "seconds": _round(analysis_s),
            "method": analysis.method,
            "cut_width": analysis.cut_width,
            "states": analysis.states,
            "components": analysis.components,
            "mean_cycles": round(analysis.expectation, 6),
            "std_cycles": round(analysis.std, 6),
            "p99_cycles": analysis.quantile(0.99),
        }
    if batch_supported(system, result.bound):
        batch_engine = BatchSimulator(system, result.bound)
        batch_trials = trials * BATCH_TRIALS_FACTOR
        # one cold run grows the transition memo and fills the shared
        # trial-stream block; the timed runs then measure the
        # steady-state (campaign) throughput
        batch_engine.latencies(spec, batch_trials, seed)
        batch_s, batch_stats = _time_call(
            lambda: batch_engine.statistics(spec, batch_trials, seed),
            repeats,
        )
        check = batch_engine.statistics(spec, trials, seed)
        if check != serial_stats:  # pragma: no cover - invariant
            raise AssertionError(
                f"batch Monte-Carlo diverged from scalar on {name!r}"
            )
        rate = batch_trials / max(batch_s, 1e-9)
        serial_rate = trials / max(serial_s, 1e-9)
        row["batch_mc"] = {
            "completion": spec.encode(),
            "trials": batch_trials,
            "seconds": _round(batch_s),
            "trials_per_s": round(rate, 1),
            "speedup_vs_serial": round(rate / serial_rate, 1),
            "mean_cycles": round(batch_stats.mean, 6),
            "memo_transitions": batch_engine.memo_size,
        }
    return row


def run_bench(
    benchmarks: Sequence[str] = CORE_BENCHMARKS,
    *,
    quick: bool = False,
    trials: int = 400,
    workers: "int | None" = 4,
    seed: int = 0,
    p: "float | str | CompletionSpec" = 0.7,
    repeats: int = 3,
    cache_dir: "str | None" = None,
    checkpoint_dir: "str | None" = None,
) -> BenchReport:
    """Time the core flows on ``benchmarks`` and build the report.

    ``quick`` shrinks the Monte-Carlo trial count and timing repeats to
    CI-smoke scale; the JSON structure stays identical so quick and
    full runs diff cleanly (``compare_bench`` normalizes timings to
    per-trial rates where the trial counts differ).

    ``cache_dir`` backs synthesis with the per-pass artifact cache, so
    the synthesis column measures the cached path on a warm directory
    (the *result* values are identical either way — the equivalence is
    pinned by tests).

    ``checkpoint_dir`` journals each finished benchmark row: an
    interrupted sweep resumed over the same directory replays completed
    rows (with their originally measured timings) and re-times only the
    missing ones.

    ``p`` accepts any completion spec (float, spec string such as
    ``per-unit:mul=0.9,*=0.5`` or ``markov:0.7,0.5``, or a
    :class:`~repro.resources.spec.CompletionSpec`); correlated specs
    simply omit the analytical sections from each row.
    """
    from functools import partial

    from .engine import parallel_map

    spec = as_completion_spec(p)
    if quick:
        trials = min(trials, 60)
        repeats = 1
    workers = resolve_workers(workers)
    names = list(benchmarks)
    run_key = (
        f"bench|quick={quick}|trials={trials}|seed={seed}"
        f"|{spec.key_fragment()}"
        f"|repeats={repeats}|benchmarks={','.join(names)}"
        if checkpoint_dir is not None
        else ""
    )
    # rows run serially here (each row parallelizes its own Monte-Carlo
    # column with ``workers``)
    row_list = parallel_map(
        partial(
            _bench_row, quick, trials, workers, seed, spec, repeats,
            cache_dir,
        ),
        names,
        checkpoint=checkpoint_dir,
        run_key=run_key,
    )
    rows = dict(zip(names, row_list))
    data = {
        "schema": 3,
        "quick": quick,
        "trials": trials,
        "workers": workers,
        "seed": seed,
        # ``p`` stays the plain float for Bernoulli runs so schema-2
        # baselines diff cleanly; richer specs store their encoding
        "p": spec.p if isinstance(spec, BernoulliSpec) else spec.encode(),
        "completion": spec.encode(),
        "environment": {
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "benchmarks": rows,
    }
    return BenchReport(data=data)


# -- regression comparison ----------------------------------------------

#: default relative slowdown tolerated before a section counts as a
#: regression (``repro bench --compare`` exits non-zero above it)
REGRESSION_THRESHOLD = 0.20


def _comparable_metrics(row: dict) -> "dict[str, float]":
    """Per-call / per-trial seconds for every timed section of a row.

    Rates are normalized per trial where trial counts may differ, so a
    ``--quick`` run compares cleanly against a full baseline.
    """
    metrics: dict[str, float] = {}
    if "synthesize_s" in row:
        metrics["synthesize"] = row["synthesize_s"]
    if "simulate_s" in row:
        metrics["simulate"] = row["simulate_s"]
    mc = row.get("monte_carlo")
    if mc and mc.get("trials"):
        metrics["mc_serial_per_trial"] = mc["serial_s"] / mc["trials"]
    engine = row.get("exact_engine")
    if engine is not None:
        metrics["exact_engine"] = engine["seconds"]
    batch = row.get("batch_mc")
    if batch and batch.get("trials"):
        metrics["batch_mc_per_trial"] = batch["seconds"] / batch["trials"]
    return metrics


@dataclass(frozen=True)
class ComparisonRow:
    """One (benchmark, section) timing pair from two bench reports."""

    benchmark: str
    metric: str
    old_s: float
    new_s: float

    @property
    def speedup(self) -> float:
        """How much faster the new run is (>1 = faster, <1 = slower)."""
        return self.old_s / max(self.new_s, 1e-12)

    def regressed(self, threshold: float) -> bool:
        return self.new_s > self.old_s * (1.0 + threshold)


@dataclass(frozen=True)
class BenchComparison:
    """Diff of two bench reports: per-section speedups + a gate."""

    rows: tuple[ComparisonRow, ...]
    threshold: float
    value_drifts: tuple[str, ...] = ()

    @property
    def regressions(self) -> tuple[ComparisonRow, ...]:
        return tuple(
            row for row in self.rows if row.regressed(self.threshold)
        )

    @property
    def ok(self) -> bool:
        """Gate verdict: no timing regression and no result-value drift."""
        return not self.regressions and not self.value_drifts

    def render(self) -> str:
        lines = [
            f"bench comparison (regression threshold "
            f"{100 * self.threshold:.0f}%)",
            f"  {'benchmark':<12} {'section':<20} "
            f"{'old':>12} {'new':>12} {'speedup':>9}",
        ]
        for row in self.rows:
            flag = (
                "  << REGRESSION" if row.regressed(self.threshold) else ""
            )
            lines.append(
                f"  {row.benchmark:<12} {row.metric:<20} "
                f"{row.old_s:>10.6f} s {row.new_s:>10.6f} s "
                f"{row.speedup:>8.2f}x{flag}"
            )
        for drift in self.value_drifts:
            lines.append(f"  VALUE DRIFT: {drift}")
        if self.ok:
            lines.append("  ok — no section regressed")
        else:
            lines.append(
                f"  FAIL — {len(self.regressions)} section(s) regressed, "
                f"{len(self.value_drifts)} value drift(s)"
            )
        return "\n".join(lines)


def _report_completion(report: dict) -> "str | None":
    """The report's encoded completion spec, schema-2 compatible.

    Schema-3 reports carry an explicit ``completion`` field; earlier
    reports only stored a float ``p``, which denoted a Bernoulli model.
    """
    completion = report.get("completion")
    if completion is not None:
        return completion
    p = report.get("p")
    if isinstance(p, bool) or p is None:
        return None
    if isinstance(p, (int, float)):
        return f"bernoulli:{float(p)!r}"
    return str(p)


def _value_drifts(old: dict, new: dict) -> "list[str]":
    """Deterministic result values that changed between two reports.

    Timing noise is expected; *result* drift (exact expectations,
    Monte-Carlo means at identical trials/seed/completion model) means
    the engines changed behaviour and always fails the gate.  Reports
    with different completion specs only diff on timings.  The exact
    expectation is read from ``exact_engine.mean_cycles``, which equals
    the ``exact_expectation.value`` that reports written before that
    section was dropped also carry.
    """
    drifts: list[str] = []
    old_completion = _report_completion(old)
    same_p = old_completion is not None and (
        old_completion == _report_completion(new)
    )
    same_mc = same_p and (
        old.get("trials") == new.get("trials")
        and old.get("seed") == new.get("seed")
    )
    old_rows = old.get("benchmarks", {})
    new_rows = new.get("benchmarks", {})
    for name in sorted(set(old_rows) & set(new_rows)):
        old_row, new_row = old_rows[name], new_rows[name]
        if same_p:
            a = (old_row.get("exact_engine") or {}).get("mean_cycles")
            b = (new_row.get("exact_engine") or {}).get("mean_cycles")
            if a is not None and b is not None and a != b:
                drifts.append(f"{name}.exact_engine.mean_cycles {a} -> {b}")
        if same_mc:
            a = (old_row.get("monte_carlo") or {}).get("mean_cycles")
            b = (new_row.get("monte_carlo") or {}).get("mean_cycles")
            if a is not None and b is not None and a != b:
                drifts.append(
                    f"{name}.monte_carlo.mean_cycles {a} -> {b}"
                )
        if old_row.get("simulated_cycles") != new_row.get(
            "simulated_cycles"
        ) and old.get("seed") == new.get("seed") and same_p:
            drifts.append(
                f"{name}.simulated_cycles "
                f"{old_row.get('simulated_cycles')} -> "
                f"{new_row.get('simulated_cycles')}"
            )
    return drifts


def compare_bench(
    old: dict,
    new: dict,
    *,
    threshold: float = REGRESSION_THRESHOLD,
) -> BenchComparison:
    """Diff two bench report documents (``BenchReport.data`` dicts).

    Sections present in both reports are compared on per-call (or
    per-trial, for the Monte-Carlo paths) seconds; sections only one
    side has are skipped, so reports from different schema versions
    still diff on their common surface.
    """
    rows: list[ComparisonRow] = []
    old_rows = old.get("benchmarks", {})
    new_rows = new.get("benchmarks", {})
    for name in sorted(set(old_rows) & set(new_rows)):
        old_metrics = _comparable_metrics(old_rows[name])
        new_metrics = _comparable_metrics(new_rows[name])
        for metric in old_metrics:
            if metric in new_metrics:
                rows.append(
                    ComparisonRow(
                        benchmark=name,
                        metric=metric,
                        old_s=old_metrics[metric],
                        new_s=new_metrics[metric],
                    )
                )
    return BenchComparison(
        rows=tuple(rows),
        threshold=threshold,
        value_drifts=tuple(_value_drifts(old, new)),
    )


def compare_bench_files(
    old_path: str,
    new_path: str,
    *,
    threshold: float = REGRESSION_THRESHOLD,
) -> BenchComparison:
    """``compare_bench`` over two report files on disk."""
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    return compare_bench(old, new, threshold=threshold)
