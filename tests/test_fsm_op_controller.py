"""Unit tests for per-operation controllers ([3]-style baseline)."""

import pytest

from repro.fsm.op_controller import (
    derive_all_operation_controllers,
    derive_operation_controller,
)
from repro.fsm.signals import op_completion, unit_completion
from repro.resources import AllFastCompletion, AllSlowCompletion
from repro.sim.controllers import ControllerSystem
from repro.sim.simulator import simulate
from repro.analysis.latency import dist_latency_cycles


@pytest.fixture()
def op_system(fig3_result) -> ControllerSystem:
    """The per-operation controllers wired into one executable system.

    Each controller consumes the completions of its data predecessors
    and of its unit-chain predecessor (the chain's first op waits on
    the chain's last op: the wrap-around interlock).
    """
    bound = fig3_result.bound
    consumes: dict[tuple[str, str], tuple[str, ...]] = {}
    for op in bound.dfg:
        chain = bound.order.chain_of(op.name)
        index = chain.index(op.name)
        preds = list(bound.dfg.predecessors(op.name))
        if len(chain) > 1:
            unit_pred = chain[index - 1] if index > 0 else chain[-1]
            if unit_pred not in preds:
                preds.append(unit_pred)
        if preds:
            consumes[(op.name, op.name)] = tuple(preds)
    return ControllerSystem(
        controllers=derive_all_operation_controllers(bound),
        consumes=consumes,
    )


class TestStructure:
    def test_one_controller_per_operation(self, fig3_result):
        controllers = derive_all_operation_controllers(fig3_result.bound)
        assert set(controllers) == set(fig3_result.dfg.op_names())

    def test_all_validate(self, fig3_result):
        for fsm in derive_all_operation_controllers(
            fig3_result.bound
        ).values():
            fsm.validate()

    def test_tau_op_has_extension_state(self, fig3_result):
        tau_op = fig3_result.bound.telescopic_ops()[0]
        fsm = derive_operation_controller(fig3_result.bound, tau_op)
        assert f"EX_{tau_op}" in fsm.states
        assert unit_completion(
            fig3_result.bound.unit_of(tau_op).name
        ) in fsm.inputs

    def test_fixed_op_has_no_extension(self, fig3_result):
        bound = fig3_result.bound
        fixed = next(
            op.name
            for op in bound.dfg
            if not bound.is_telescopic_op(op.name)
        )
        fsm = derive_operation_controller(bound, fixed)
        assert f"EX_{fixed}" not in fsm.states

    def test_chain_serialization_inputs(self, fig3_result):
        """Non-first chain ops wait for their chain predecessor."""
        bound = fig3_result.bound
        for unit in bound.used_units():
            ops = bound.ops_on_unit(unit.name)
            for prev, op in zip(ops, ops[1:]):
                fsm = derive_operation_controller(bound, op)
                assert op_completion(prev) in fsm.inputs

    def test_wrap_interlock_on_first_chain_op(self, fig3_result):
        bound = fig3_result.bound
        unit = next(
            u for u in bound.used_units() if len(bound.ops_on_unit(u.name)) > 1
        )
        ops = bound.ops_on_unit(unit.name)
        fsm = derive_operation_controller(bound, ops[0])
        assert op_completion(ops[-1]) in fsm.inputs

    def test_unknown_op_rejected(self, fig3_result):
        from repro.errors import FSMError

        with pytest.raises(FSMError, match="unknown operation"):
            derive_operation_controller(fig3_result.bound, "zzz")


class TestSemantics:
    def test_latency_matches_distributed_all_fast(
        self, fig3_result, op_system
    ):
        sim = simulate(op_system, fig3_result.bound, AllFastCompletion())
        expected = dist_latency_cycles(
            fig3_result.bound,
            {op: True for op in fig3_result.dfg.op_names()},
        )
        assert sim.cycles == expected

    def test_latency_matches_distributed_all_slow(
        self, fig3_result, op_system
    ):
        sim = simulate(op_system, fig3_result.bound, AllSlowCompletion())
        expected = dist_latency_cycles(
            fig3_result.bound,
            {op: False for op in fig3_result.dfg.op_names()},
        )
        assert sim.cycles == expected

    def test_functional_correctness(self, fig3_result, op_system):
        inputs = {name: i + 2 for i, name in enumerate(fig3_result.dfg.inputs)}
        sim = simulate(
            op_system,
            fig3_result.bound,
            AllSlowCompletion(),
            inputs=inputs,
        )
        reference = fig3_result.dfg.evaluate(inputs)
        assert sim.datapath.output_values()["out"] == reference["out"]

    def test_unit_mutual_exclusion(self, fig3_result, op_system):
        """The chain tokens must keep each unit at one op per cycle; the
        simulator raises if two controllers overlap on a unit."""
        sim = simulate(
            op_system, fig3_result.bound, AllSlowCompletion(), iterations=2
        )
        assert len(sim.iteration_finish_cycles) == 2
