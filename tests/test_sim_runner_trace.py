"""Unit tests for the batch runners."""

from repro.resources import AllFastCompletion, BernoulliCompletion
from repro.sim.runner import (
    monte_carlo_latency,
    pipelined_throughput,
    simulate_assignment,
)


class TestMonteCarloLatency:
    def test_statistics_bounds(self, fig3_result):
        comparison = fig3_result.latency_comparison()
        stats = monte_carlo_latency(
            fig3_result.distributed_system(),
            fig3_result.bound,
            p=0.7,
            trials=60,
        )
        assert comparison.dist.best_cycles <= stats.minimum
        assert stats.maximum <= comparison.dist.worst_cycles
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.trials == 60

    def test_mean_tracks_exact_expectation(self, fig3_result):
        comparison = fig3_result.latency_comparison(ps=(0.7,))
        stats = monte_carlo_latency(
            fig3_result.distributed_system(),
            fig3_result.bound,
            p=0.7,
            trials=400,
        )
        exact = comparison.dist.expected_cycles[0.7]
        assert abs(stats.mean - exact) < 0.35

    def test_mean_ns(self, fig3_result):
        stats = monte_carlo_latency(
            fig3_result.distributed_system(),
            fig3_result.bound,
            p=1.0,
            trials=5,
        )
        assert stats.mean_ns(15.0) == stats.mean * 15.0


class TestSimulateAssignment:
    def test_partial_assignment_defaults_fast(self, fig3_result):
        tau_ops = fig3_result.bound.telescopic_ops()
        sim = simulate_assignment(
            fig3_result.distributed_system(),
            fig3_result.bound,
            {tau_ops[0]: False},
        )
        for op in tau_ops[1:]:
            assert sim.fast_outcomes[op][0] is True
        assert sim.fast_outcomes[tau_ops[0]][0] is False


class TestPipelinedThroughput:
    def test_throughput_not_worse_than_latency(self, fig3_result):
        result, throughput = pipelined_throughput(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
            iterations=6,
        )
        assert throughput <= result.cycles + 1e-9

    def test_overlap_beats_sync(self, fig3_result):
        __, dist_tp = pipelined_throughput(
            fig3_result.distributed_system(),
            fig3_result.bound,
            BernoulliCompletion(0.8),
            iterations=6,
            seed=4,
        )
        __, sync_tp = pipelined_throughput(
            fig3_result.cent_sync_system(),
            fig3_result.bound,
            BernoulliCompletion(0.8),
            iterations=6,
            seed=4,
        )
        assert dist_tp <= sync_tp + 1e-9
