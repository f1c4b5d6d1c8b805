"""Experiment T2 — reproduce Table 2 (latency, TAUBM-sync vs distributed).

For each of the six benchmark rows (3rd/5th FIR, 2nd/3rd IIR, Diff.,
AR-lattice) under the paper's allocations and timing (SD = 15 ns,
LD = 20 ns, FD = 15 ns): best case, exact expected latency at
P ∈ {0.9, 0.7, 0.5}, worst case — for the synchronized centralized TAUBM
controller and the distributed control unit — plus the performance
enhancement column.

Expected shape: DIST ≤ SYNC everywhere (dominance is a theorem here, see
the property tests); the enhancement grows with the number of TAU
operations per step and with decreasing P; rows with little concurrency
(3rd FIR) improve least.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..analysis.latency import LatencyComparison, compare_latencies
from ..analysis.tables import render_table
from ..benchmarks.registry import BenchmarkEntry, table2_benchmarks
from .common import synthesize_entry


@dataclass(frozen=True)
class Table2Result:
    """All rows of the reproduced Table 2."""

    ps: tuple[float, ...]
    comparisons: tuple[LatencyComparison, ...]

    def rows(self) -> list[list[str]]:
        return [
            [
                c.benchmark,
                c.resources,
                c.sync.bracket_ns(),
                c.dist.bracket_ns(),
                c.enhancement_column(),
            ]
            for c in self.comparisons
        ]

    def render(self) -> str:
        header = [
            "DFG",
            "Resources",
            "LT_TAU (ns)",
            "LT_DIST (ns)",
            "Enhancement",
        ]
        title = (
            "Table 2 — latency comparison, P in "
            + str(list(self.ps))
            + " (SD=15ns, LD=20ns, FD=15ns)"
        )
        return title + "\n" + render_table(header, self.rows())

    def check_shape(self) -> None:
        """Assert the paper's qualitative latency claims on every row."""
        for c in self.comparisons:
            assert c.dist.best_cycles <= c.sync.best_cycles
            assert c.dist.worst_cycles <= c.sync.worst_cycles
            for p in self.ps:
                assert (
                    c.dist.expected_ns(p) <= c.sync.expected_ns(p) + 1e-9
                ), f"DIST slower than SYNC on {c.benchmark} at P={p}"
                assert c.enhancement(p) >= -1e-9


def _table2_row(
    ps: tuple[float, ...],
    exact_limit: int,
    trials: int,
    entry: BenchmarkEntry,
) -> LatencyComparison:
    """Synthesize one benchmark row and compare latencies (pool-safe)."""
    res = synthesize_entry(entry, scheduler="exact")
    comparison = compare_latencies(
        res.bound,
        res.taubm,
        ps=ps,
        exact_limit=exact_limit,
        trials=trials,
    )
    return LatencyComparison(
        benchmark=entry.title,
        resources=comparison.resources,
        sync=comparison.sync,
        dist=comparison.dist,
        fixed_design_ns=comparison.fixed_design_ns,
    )


def run_table2(
    entries: "Sequence[BenchmarkEntry] | None" = None,
    ps: Sequence[float] = (0.9, 0.7, 0.5),
    exact_limit: int = 20,
    trials: int = 4000,
    workers: "int | None" = 1,
    checkpoint=None,
) -> Table2Result:
    """Regenerate Table 2 over the registered Table-2 benchmarks.

    Each row is an independent synthesis + expectation computation;
    ``workers`` distributes rows over a process pool without changing a
    single digit of the output.  ``checkpoint`` journals each finished
    row so an interrupted run resumes byte-identically (see
    :mod:`repro.runtime`).
    """
    from functools import partial

    from ..perf.engine import parallel_map

    work = list(entries or table2_benchmarks())
    run_key = (
        "table2|" + ",".join(e.name for e in work)
        + f"|ps={list(ps)!r}|exact_limit={exact_limit}|trials={trials}"
        if checkpoint is not None
        else ""
    )
    rows = parallel_map(
        partial(_table2_row, tuple(ps), exact_limit, trials),
        work,
        workers=workers,
        checkpoint=checkpoint,
        run_key=run_key,
    )
    return Table2Result(ps=tuple(ps), comparisons=tuple(rows))
