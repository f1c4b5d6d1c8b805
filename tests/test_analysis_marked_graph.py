"""Unit tests for the marked-graph throughput bound."""

from fractions import Fraction

import pytest

from repro.analysis import pipelined_throughput_bound
from repro.experiments import synthesize_benchmark
from repro.resources import AllFastCompletion, AllSlowCompletion
from repro.sim import pipelined_throughput


class TestBoundStructure:
    def test_exact_rational(self, fig3_result):
        bound = pipelined_throughput_bound(fig3_result.bound, fast=True)
        assert isinstance(bound.cycles_per_iteration, Fraction)
        assert bound.cycles_per_iteration >= 1

    def test_critical_cycle_is_closed(self, fig3_result):
        bound = pipelined_throughput_bound(fig3_result.bound, fast=False)
        edges = set(fig3_result.bound.execution_edges())
        for _, chain in fig3_result.order.all_chains():
            if chain:
                edges.add((chain[-1], chain[0]))
        cycle = bound.critical_cycle
        for i, node in enumerate(cycle):
            assert (node, cycle[(i + 1) % len(cycle)]) in edges

    def test_slow_bound_not_below_fast(self, fig3_result):
        fast = pipelined_throughput_bound(fig3_result.bound, fast=True)
        slow = pipelined_throughput_bound(fig3_result.bound, fast=False)
        assert slow.cycles_per_iteration >= fast.cycles_per_iteration

    def test_at_least_resource_bound(self, fig3_result):
        """λ* can never beat the busiest unit's work per iteration."""
        bound = pipelined_throughput_bound(fig3_result.bound, fast=True)
        busiest = max(
            sum(
                fig3_result.bound.duration_cycles(op, True)
                for op in fig3_result.bound.ops_on_unit(unit.name)
            )
            for unit in fig3_result.bound.used_units()
        )
        assert bound.cycles_per_iteration >= busiest

    def test_render(self, fig3_result):
        text = pipelined_throughput_bound(fig3_result.bound).render()
        assert "cycles/iteration" in text and "->" in text

    def test_explicit_durations(self, fig3_result):
        heavy = {op: 3 for op in fig3_result.dfg.op_names()}
        bound = pipelined_throughput_bound(
            fig3_result.bound, durations=heavy
        )
        assert bound.cycles_per_iteration >= 6  # 2-op chain of weight 3

    def test_bad_duration_rejected(self, fig3_result):
        from repro.errors import SimulationError

        zero = {op: 0 for op in fig3_result.dfg.op_names()}
        with pytest.raises(SimulationError, match=">= 1"):
            pipelined_throughput_bound(fig3_result.bound, durations=zero)


class TestAgainstSimulator:
    @pytest.mark.parametrize("name", ["fir3", "fir5", "fig3"])
    @pytest.mark.parametrize("fast", [True, False])
    def test_simulator_achieves_bound(self, name, fast):
        """With fixed durations the simulator hits λ* exactly on these
        benchmarks (no token overrun distortion)."""
        result = synthesize_benchmark(name)
        model = AllFastCompletion() if fast else AllSlowCompletion()
        bound = pipelined_throughput_bound(result.bound, fast=fast)
        __, throughput = pipelined_throughput(
            result.distributed_system(),
            result.bound,
            model,
            iterations=12,
        )
        assert throughput == pytest.approx(float(bound.cycles_per_iteration))

    def test_simulated_never_beats_bound(self):
        """λ* is a true lower bound on cycles/iteration."""
        result = synthesize_benchmark("diffeq")
        bound = pipelined_throughput_bound(result.bound, fast=True)
        __, throughput = pipelined_throughput(
            result.distributed_system(),
            result.bound,
            AllFastCompletion(),
            iterations=12,
        )
        assert throughput >= float(bound.cycles_per_iteration) - 1e-9
