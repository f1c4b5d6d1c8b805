"""Unit tests for the analytic latency engine."""

import pytest

from repro.analysis.latency import (
    DistLatencyEvaluator,
    dist_latency_cycles,
    exact_expected_latency,
    expected_latency,
    monte_carlo_expected_latency,
    scheme_latency,
    sync_latency_cycles,
)
from repro.errors import SimulationError


class TestDistLatency:
    def test_all_fast_is_critical_path(self, fig3_result):
        cycles = dist_latency_cycles(
            fig3_result.bound,
            {op: True for op in fig3_result.dfg.op_names()},
        )
        assert cycles == 4

    def test_all_slow_adds_tau_cycles_on_path(self, fig3_result):
        cycles = dist_latency_cycles(
            fig3_result.bound,
            {op: False for op in fig3_result.dfg.op_names()},
        )
        assert cycles == 6

    def test_evaluator_matches_reference(self, fig3_result):
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        import itertools

        tau_ops = fig3_result.bound.telescopic_ops()
        for values in itertools.product((False, True), repeat=len(tau_ops)):
            fast = dict(zip(tau_ops, values))
            assert evaluator(fast) == dist_latency_cycles(
                fig3_result.bound, fast
            )

    def test_monotone_in_slowness(self, fig3_result):
        """Making one op slower never decreases latency."""
        tau_ops = fig3_result.bound.telescopic_ops()
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        base = {op: True for op in tau_ops}
        for op in tau_ops:
            slower = dict(base)
            slower[op] = False
            assert evaluator(slower) >= evaluator(base)


class TestSyncLatency:
    def test_matches_schedule_model(self, fig3_result):
        taubm = fig3_result.taubm
        tau_ops = fig3_result.bound.telescopic_ops()
        assert (
            sync_latency_cycles(taubm, {op: True for op in tau_ops})
            == taubm.min_cycles()
        )
        assert (
            sync_latency_cycles(taubm, {op: False for op in tau_ops})
            == taubm.max_cycles()
        )


class TestExpectation:
    def test_exact_matches_closed_form_for_sync(self, fig3_result):
        """Enumeration must reproduce the 2 - P^n closed form."""
        taubm = fig3_result.taubm
        tau_ops = fig3_result.bound.telescopic_ops()
        for p in (0.9, 0.5, 0.25):
            exact = exact_expected_latency(
                lambda fast: sync_latency_cycles(taubm, fast), tau_ops, p
            )
            assert exact == pytest.approx(taubm.expected_cycles(p))

    def test_exact_limit_enforced(self):
        with pytest.raises(SimulationError, match="exceed"):
            exact_expected_latency(lambda fast: 1, ["o"] * 25, 0.5)

    def test_bad_p(self):
        with pytest.raises(SimulationError, match="P must be"):
            exact_expected_latency(lambda fast: 1, ["a"], 1.5)

    def test_monte_carlo_converges(self, fig3_result):
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        tau_ops = fig3_result.bound.telescopic_ops()
        exact = exact_expected_latency(evaluator, tau_ops, 0.7)
        mc = monte_carlo_expected_latency(
            evaluator, tau_ops, 0.7, trials=3000, seed=1
        )
        assert abs(mc - exact) < 0.1

    def test_expected_latency_dispatch(self, fig3_result):
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        tau_ops = fig3_result.bound.telescopic_ops()
        exact = expected_latency(evaluator, tau_ops, 0.7)
        forced_mc = expected_latency(
            evaluator, tau_ops, 0.7, exact_limit=1, trials=3000
        )
        assert abs(exact - forced_mc) < 0.1

    def test_degenerate_p_values(self, fig3_result):
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        tau_ops = fig3_result.bound.telescopic_ops()
        assert exact_expected_latency(evaluator, tau_ops, 1.0) == evaluator(
            {op: True for op in tau_ops}
        )
        assert exact_expected_latency(evaluator, tau_ops, 0.0) == evaluator(
            {op: False for op in tau_ops}
        )


class TestComparison:
    def test_bracket_format(self, fig3_result):
        comparison = fig3_result.latency_comparison()
        text = comparison.dist.bracket_ns()
        assert text.startswith("[60]")
        assert text.endswith("[90]")

    def test_enhancement_positive(self, fig3_result):
        comparison = fig3_result.latency_comparison()
        for p in (0.9, 0.7, 0.5):
            assert comparison.enhancement(p) >= 0

    def test_enhancement_column(self, fig3_result):
        column = fig3_result.latency_comparison().enhancement_column()
        assert column.count("%") == 3

    def test_fixed_design_baseline(self, fig3_result):
        comparison = fig3_result.latency_comparison()
        assert comparison.fixed_design_ns == (
            fig3_result.schedule.num_steps * 20.0
        )

    def test_resource_string(self, fig3_result):
        comparison = fig3_result.latency_comparison()
        assert comparison.resources == "*:2, +:2"


class TestSchemeLatency:
    def test_bounds_ordering(self, fig3_result):
        evaluator = DistLatencyEvaluator(fig3_result.bound)
        tau_ops = fig3_result.bound.telescopic_ops()
        scheme = scheme_latency(
            "DIST", evaluator, tau_ops, 15.0, ps=(0.9, 0.5)
        )
        assert scheme.best_cycles <= scheme.expected_cycles[0.9]
        assert scheme.expected_cycles[0.9] <= scheme.expected_cycles[0.5]
        assert scheme.expected_cycles[0.5] <= scheme.worst_cycles
