"""Analytic latency models and report rendering."""

from .activity import ActivityReport, activity_report
from .marked_graph import (
    ThroughputBound,
    pipelined_throughput_bound,
)
from .distribution import (
    DistributionComparison,
    LatencyDistribution,
    compare_distributions,
    exact_latency_distribution,
)
from .exact_engine import (
    ExactLatencyAnalysis,
    analyze_dist,
    analyze_sync,
    graph_latency_pmf,
)
from .latency import (
    DistLatencyEvaluator,
    DurationTable,
    EXACT_ENUMERATION_LIMIT,
    LatencyComparison,
    SchemeLatency,
    SyncLatencyEvaluator,
    compare_latencies,
    dist_latency_cycles,
    duration_table,
    enumerate_assignments,
    exact_expected_latency,
    expected_latency,
    monte_carlo_expected_latency,
    scheme_latency,
    sync_latency_cycles,
)
from .tables import render_series, render_table
from .utilization import (
    UnitUtilization,
    UtilizationReport,
    utilization_report,
)

__all__ = [
    "ActivityReport",
    "DistLatencyEvaluator",
    "DistributionComparison",
    "DurationTable",
    "EXACT_ENUMERATION_LIMIT",
    "ExactLatencyAnalysis",
    "LatencyComparison",
    "LatencyDistribution",
    "SchemeLatency",
    "SyncLatencyEvaluator",
    "ThroughputBound",
    "activity_report",
    "analyze_dist",
    "analyze_sync",
    "graph_latency_pmf",
    "UnitUtilization",
    "UtilizationReport",
    "compare_distributions",
    "compare_latencies",
    "dist_latency_cycles",
    "duration_table",
    "enumerate_assignments",
    "exact_expected_latency",
    "exact_latency_distribution",
    "expected_latency",
    "monte_carlo_expected_latency",
    "pipelined_throughput_bound",
    "render_series",
    "render_table",
    "scheme_latency",
    "sync_latency_cycles",
    "utilization_report",
]
