"""Unit tests for operation→unit binding."""

import pytest

from repro.benchmarks import paper_fig3_dfg
from repro.binding.binder import BoundDataflowGraph, bind
from repro.core.ops import ResourceClass
from repro.errors import BindingError
from repro.resources.allocation import ResourceAllocation
from repro.scheduling.order_based import order_based_schedule


@pytest.fixture()
def bound(fig3_result):
    return fig3_result.bound


class TestBind:
    def test_every_op_bound(self, bound):
        for op in bound.dfg:
            unit = bound.unit_of(op.name)
            assert unit.resource_class is op.resource_class

    def test_ops_on_unit_matches_chains(self, bound):
        all_ops = []
        for unit in bound.allocation:
            all_ops.extend(bound.ops_on_unit(unit.name))
        assert sorted(all_ops) == sorted(bound.dfg.op_names())

    def test_chain_count_exceeding_units_rejected(self):
        dfg = paper_fig3_dfg()
        wide_alloc = ResourceAllocation.parse("mul:3T,add:2")
        order = order_based_schedule(dfg, wide_alloc)
        narrow_alloc = ResourceAllocation.parse("mul:2T,add:2")
        with pytest.raises(BindingError, match="chains of class"):
            bind(dfg, narrow_alloc, order)

    def test_class_mismatch_rejected(self, fig3_result):
        binding = dict(fig3_result.bound.binding)
        binding["o0"] = "A1"  # a multiplication on an adder
        with pytest.raises(BindingError, match="bound to"):
            BoundDataflowGraph(
                dfg=fig3_result.dfg,
                allocation=fig3_result.allocation,
                order=fig3_result.order,
                binding=binding,
            )

    def test_unbound_op_rejected(self, fig3_result):
        binding = dict(fig3_result.bound.binding)
        del binding["o0"]
        with pytest.raises(BindingError, match="unbound"):
            BoundDataflowGraph(
                dfg=fig3_result.dfg,
                allocation=fig3_result.allocation,
                order=fig3_result.order,
                binding=binding,
            )


class TestCrossUnitRelations:
    def test_same_unit_pred_excluded(self, bound):
        """A chain predecessor that is also a data predecessor is not a
        cross-unit predecessor (the controller orders it implicitly)."""
        for op in bound.dfg:
            unit = bound.binding[op.name]
            for pred in bound.cross_unit_predecessors(op.name):
                assert bound.binding[pred] != unit

    def test_successor_inverse_of_predecessor(self, bound):
        for op in bound.dfg:
            for succ in bound.cross_unit_successors(op.name):
                assert op.name in bound.cross_unit_predecessors(succ)


class TestTiming:
    def test_duration_cycles(self, bound):
        tau_op = bound.telescopic_ops()[0]
        assert bound.duration_cycles(tau_op, fast=True) == 1
        assert bound.duration_cycles(tau_op, fast=False) == 2

    def test_fixed_op_duration(self, bound):
        fixed = [
            op.name
            for op in bound.dfg
            if not bound.is_telescopic_op(op.name)
        ][0]
        assert bound.duration_cycles(fixed, fast=True) == 1
        assert bound.duration_cycles(fixed, fast=False) == 1

    def test_telescopic_ops_are_multiplications(self, bound):
        for name in bound.telescopic_ops():
            assert (
                bound.dfg.op(name).resource_class
                is ResourceClass.MULTIPLIER
            )


class TestReporting:
    def test_describe_lists_units(self, bound):
        text = bound.describe()
        for unit in bound.allocation:
            assert unit.name in text

    def test_used_units(self, bound):
        assert {u.name for u in bound.used_units()} == {
            u.name for u in bound.allocation
        }
