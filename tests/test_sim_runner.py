"""Batch runners: Monte-Carlo statistics, scenario runs, throughput."""

import pytest

from repro.errors import SimulationError
from repro.resources import AllFastCompletion
from repro.sim import simulate
from repro.sim.runner import (
    monte_carlo_latency,
    pipelined_throughput,
    simulate_assignment,
)


class TestMonteCarloLatency:
    def test_deterministic_under_fixed_seed(self, fig3_result):
        a = monte_carlo_latency(
            fig3_result.distributed_system(),
            fig3_result.bound,
            p=0.7,
            trials=25,
            seed=3,
        )
        b = monte_carlo_latency(
            fig3_result.distributed_system(),
            fig3_result.bound,
            p=0.7,
            trials=25,
            seed=3,
        )
        assert a == b

    def test_statistics_are_consistent(self, fig3_result):
        stats = monte_carlo_latency(
            fig3_result.distributed_system(),
            fig3_result.bound,
            p=0.5,
            trials=30,
        )
        assert stats.trials == 30
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.std >= 0.0
        clock = fig3_result.bound.allocation.clock_period_ns()
        assert stats.mean_ns(clock) == pytest.approx(stats.mean * clock)

    def test_degenerate_p_collapses_the_spread(self, fig3_result):
        stats = monte_carlo_latency(
            fig3_result.distributed_system(),
            fig3_result.bound,
            p=1.0,
            trials=10,
        )
        assert stats.minimum == stats.maximum
        assert stats.std == 0.0

    @pytest.mark.parametrize("engine", ["auto", "scalar", "batch"])
    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_rejected_by_every_engine(
        self, fig3_result, engine, trials
    ):
        with pytest.raises(
            SimulationError, match=f"needs >= 1 trial, got {trials}$"
        ):
            fig3_result.monte_carlo_latency(
                0.7, trials=trials, engine=engine
            )


class TestSimulateAssignment:
    def test_empty_override_means_all_fast(self, fig3_result):
        assigned = simulate_assignment(
            fig3_result.distributed_system(), fig3_result.bound, fast={}
        )
        all_fast = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
        )
        assert assigned.cycles == all_fast.cycles

    def test_override_forces_named_op_slow(self, fig3_result):
        telescopic = sorted(
            op
            for op in fig3_result.distributed_system().all_ops()
            if fig3_result.bound.unit_of(op).is_telescopic
        )
        victim = telescopic[0]
        result = simulate_assignment(
            fig3_result.distributed_system(),
            fig3_result.bound,
            fast={victim: False},
        )
        assert result.fast_outcomes[victim][0] is False
        baseline = simulate_assignment(
            fig3_result.distributed_system(), fig3_result.bound, fast={}
        )
        assert result.cycles >= baseline.cycles


class TestPipelinedThroughput:
    def test_runs_requested_iterations(self, fig3_result):
        result, throughput = pipelined_throughput(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
            iterations=4,
        )
        assert len(result.iteration_finish_cycles) == 4
        assert throughput > 0

    def test_overlap_beats_or_matches_latency(self, fig3_result):
        """Wrap-around controllers overlap iterations: steady-state cycles
        per iteration never exceed the first-iteration latency."""
        result, throughput = pipelined_throughput(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
            iterations=6,
        )
        assert throughput <= result.cycles

    def test_needs_at_least_two_iterations(self, fig3_result):
        with pytest.raises(SimulationError, match="two simulated"):
            pipelined_throughput(
                fig3_result.distributed_system(),
                fig3_result.bound,
                AllFastCompletion(),
                iterations=1,
            )
