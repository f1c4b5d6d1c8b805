"""The exact latency engine against the exhaustive enumerator.

The frontier DP and the step-convolution model must reproduce the
``2**k`` enumeration *exactly* — same support, same probabilities —
wherever the enumeration is feasible.  These tests pin that equivalence
on random DFGs and exercise the structured failure mode (the
correlation-cut limit) that replaces the old silent fallback.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.distribution import exact_latency_distribution
from repro.analysis.exact_engine import (
    analyze_dist,
    analyze_sync,
    graph_latency_pmf,
)
from repro.analysis.latency import (
    DistLatencyEvaluator,
    SyncLatencyEvaluator,
    duration_table,
    exact_expected_latency,
    expected_latency,
)
from repro.api import synthesize
from repro.errors import ExactAnalysisError, SimulationError

from conftest import random_dfgs

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

allocations = st.sampled_from(
    ["mul:1T,add:1,sub:1", "mul:2T,add:1,sub:1", "mul:2T,add:2,sub:1"]
)

ps = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])


def _enumerated_pmf(scheme, latency_fn, tau_ops, p, clock_ns):
    """Legacy ``2**k`` enumeration, forced via an opaque wrapper."""
    return exact_latency_distribution(
        scheme, lambda fast: latency_fn(fast), tau_ops, p, clock_ns
    ).pmf


def _assert_pmf_equal(engine_pmf, enum_pmf):
    assert [c for c, _ in engine_pmf] == [c for c, _ in enum_pmf]
    for (_, a), (_, b) in zip(engine_pmf, enum_pmf):
        assert a == pytest.approx(b, abs=1e-12)


@SETTINGS
@given(random_dfgs, allocations, ps)
def test_dist_engine_matches_enumeration(dfg, spec, p):
    """Frontier-DP PMF == exhaustive enumeration on random DFGs."""
    result = synthesize(dfg, spec)
    evaluator = DistLatencyEvaluator(result.bound)
    tau_ops = result.bound.telescopic_ops()
    assert len(tau_ops) <= 12  # the enumerator stays feasible
    analysis = analyze_dist(evaluator, duration_table(result.bound, p))
    _assert_pmf_equal(
        analysis.distribution.pmf,
        _enumerated_pmf("DIST", evaluator, tau_ops, p, 1.0),
    )


@SETTINGS
@given(random_dfgs, allocations, ps)
def test_sync_engine_matches_enumeration(dfg, spec, p):
    """Step-convolution PMF == exhaustive enumeration on random DFGs."""
    result = synthesize(dfg, spec)
    evaluator = SyncLatencyEvaluator(result.taubm)
    tau_ops = result.bound.telescopic_ops()
    analysis = analyze_sync(result.taubm, duration_table(result.bound, p))
    _assert_pmf_equal(
        analysis.distribution.pmf,
        _enumerated_pmf("CENT-SYNC", evaluator, tau_ops, p, 1.0),
    )


@SETTINGS
@given(random_dfgs, allocations, ps)
def test_engine_expectation_matches_enumeration(dfg, spec, p):
    """Expectation through the dispatching API == opaque enumeration."""
    result = synthesize(dfg, spec)
    evaluator = DistLatencyEvaluator(result.bound)
    tau_ops = result.bound.telescopic_ops()
    via_engine = exact_expected_latency(evaluator, tau_ops, p)
    via_enum = exact_expected_latency(
        lambda fast: evaluator(fast), tau_ops, p
    )
    assert via_engine == pytest.approx(via_enum, abs=1e-9)


class TestEngineDiagnostics:
    def test_reports_method_and_cut_width(self, fig3_result):
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        tau_ops = fig3_result.bound.telescopic_ops()
        analysis = analyze_dist(
            evaluator, duration_table(fig3_result.bound, 0.7)
        )
        assert analysis.method == "frontier-dp"
        assert analysis.cut_width >= 1
        assert analysis.states >= 1
        assert analysis.components >= 1

    def test_quantile_and_moments_delegate(self, fig3_result):
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        tau_ops = fig3_result.bound.telescopic_ops()
        analysis = analyze_dist(
            evaluator, duration_table(fig3_result.bound, 0.7)
        )
        dist = analysis.distribution
        assert analysis.expectation == pytest.approx(dist.mean())
        assert analysis.variance == pytest.approx(dist.variance())
        assert analysis.quantile(0.99) == dist.quantile(0.99)

    def test_p_validated(self, fig3_result):
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        with pytest.raises(SimulationError, match="P must"):
            analyze_dist(evaluator, duration_table(fig3_result.bound, 1.5))


class TestCutLimit:
    def test_structured_error_when_cut_exceeded(self, fig3_result):
        """A too-small cut limit raises the structured error eagerly."""
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        tau_ops = fig3_result.bound.telescopic_ops()
        with pytest.raises(ExactAnalysisError) as info:
            analyze_dist(
                evaluator,
                duration_table(fig3_result.bound, 0.7),
                cut_limit=0,
            )
        assert info.value.cut_width is not None
        assert info.value.cut_width > 0
        assert info.value.limit == 0
        assert info.value.context() == {
            "cut_width": info.value.cut_width,
            "limit": 0,
            "reason": None,
        }

    def test_expected_latency_refuses_silent_fallback(self):
        """allow_monte_carlo=False raises instead of sampling."""
        with pytest.raises(ExactAnalysisError, match="allow_monte_carlo"):
            expected_latency(
                lambda fast: 1,
                [f"op{i}" for i in range(30)],
                0.5,
                allow_monte_carlo=False,
            )

    def test_expected_latency_samples_when_allowed(self):
        value = expected_latency(
            lambda fast: 1, [f"op{i}" for i in range(30)], 0.5
        )
        assert value == pytest.approx(1.0)


class TestGraphPmf:
    def test_empty_graph(self):
        pmf, width, peak, parts = graph_latency_pmf((), ())
        assert pmf == {0: 1.0}
        assert (width, parts) == (0, 0)
        assert peak >= 1

    def test_independent_nodes_join_by_cdf_product(self):
        """Two independent coin-flip nodes: max of independent maxima."""
        spec = ((1, 0.5), (2, 0.5))
        pmf, width, _, parts = graph_latency_pmf((spec, spec), ((), ()))
        assert parts == 2
        assert width == 0  # sinks fold into the running max, no frontier
        assert pmf[1] == pytest.approx(0.25)
        assert pmf[2] == pytest.approx(0.75)

    def test_chain_convolves(self):
        """A two-node chain adds durations."""
        spec = ((1, 0.5), (2, 0.5))
        pmf, _, _, _ = graph_latency_pmf((spec, spec), ((), (0,)))
        assert pmf[2] == pytest.approx(0.25)
        assert pmf[3] == pytest.approx(0.5)
        assert pmf[4] == pytest.approx(0.25)
