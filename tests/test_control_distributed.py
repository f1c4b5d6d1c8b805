"""Unit tests for the distributed control unit integration (Fig. 7)."""

from repro.control.distributed import build_distributed_control_unit
from repro.control.netlist import completion_netlist
from repro.fsm.algorithm1 import derive_all_unit_controllers
from repro.fsm.signals import is_op_completion, op_completion


class TestIntegration:
    def test_one_controller_per_used_unit(self, fig3_result):
        dcu = fig3_result.distributed
        assert set(dcu.unit_names) == {
            u.name for u in fig3_result.bound.used_units()
        }

    def test_unconsumed_completions_pruned(self, fig3_result):
        """The paper's example: CC of ops nobody listens to is removed."""
        dcu = fig3_result.distributed
        consumed = {
            s
            for fsm in dcu.controllers.values()
            for s in fsm.inputs
            if is_op_completion(s)
        }
        for fsm in dcu.controllers.values():
            for signal in fsm.outputs:
                if is_op_completion(signal):
                    assert signal in consumed

    def test_pruned_signals_reported(self, fig3_result):
        dcu = fig3_result.distributed
        assert dcu.pruned_signals
        for signal in dcu.pruned_signals:
            assert is_op_completion(signal)

    def test_sink_op_completion_always_pruned(self, fig3_result):
        """The DFG's sink op has no consumers: its CC must be gone."""
        sink = fig3_result.dfg.sink_ops()[0]
        assert op_completion(sink) in fig3_result.distributed.pruned_signals

    def test_live_nets_match_cross_unit_edges(self, fig3_result):
        dcu = fig3_result.distributed
        bound = fig3_result.bound
        expected_producers = set()
        for op in bound.dfg:
            expected_producers.update(
                bound.cross_unit_predecessors(op.name)
            )
        assert {
            n.producer_op for n in dcu.live_nets()
        } == expected_producers

    def test_latch_count_matches_cc_inputs(self, fig3_result):
        dcu = fig3_result.distributed
        expected = sum(
            sum(1 for s in fsm.inputs if is_op_completion(s))
            for fsm in dcu.controllers.values()
        )
        assert dcu.num_latches == expected

    def test_describe_mentions_pruning(self, fig3_result):
        text = fig3_result.distributed.describe()
        assert "pruned" in text
        assert "latches" in text


class TestAreaAggregation:
    def test_total_includes_latches(self, fig3_result):
        dcu = fig3_result.distributed
        with_latches = dcu.total_area(include_latches=True)
        without = dcu.total_area(include_latches=False)
        assert (
            with_latches.num_flip_flops
            == without.num_flip_flops + dcu.num_latches
        )
        assert with_latches.sequential_area > without.sequential_area

    def test_component_rows(self, fig3_result):
        rows = fig3_result.distributed.component_areas()
        assert len(rows) == len(fig3_result.distributed.unit_names)
        assert all(r.name.startswith("D-FSM-") for r in rows)

    def test_external_io_excludes_internal_wires(self, fig3_result):
        total = fig3_result.distributed.total_area()
        # External inputs: only the TAU completion signals.
        assert total.num_inputs == len(
            fig3_result.allocation.telescopic_units()
        )


class TestNetlist:
    def test_dead_nets_have_zero_fanout(self, fig3_result):
        raw = derive_all_unit_controllers(fig3_result.bound)
        nets = completion_netlist(fig3_result.bound, raw)
        sink = fig3_result.dfg.sink_ops()[0]
        [sink_net] = [n for n in nets if n.producer_op == sink]
        assert sink_net.fanout == 0

    def test_net_str(self, fig3_result):
        net = fig3_result.distributed.live_nets()[0]
        assert "->" in str(net)

    def test_every_op_has_a_net(self, fig3_result):
        raw = derive_all_unit_controllers(fig3_result.bound)
        nets = completion_netlist(fig3_result.bound, raw)
        assert {n.producer_op for n in nets} == set(
            fig3_result.dfg.op_names()
        )


class TestExecutability:
    def test_system_simulates(self, fig3_result):
        from repro.resources import AllFastCompletion
        from repro.sim import simulate

        dcu = build_distributed_control_unit(fig3_result.bound)
        sim = simulate(dcu.system(), fig3_result.bound, AllFastCompletion())
        assert sim.cycles > 0
