"""Unit tests for schedule data models."""

import pytest

from repro.benchmarks import paper_fig2_dfg
from repro.core.ops import ResourceClass
from repro.errors import SchedulingError
from repro.scheduling.asap_alap import asap_schedule
from repro.scheduling.schedule import (
    OrderSchedule,
    TaubmStep,
    TimeStepSchedule,
)


class TestTimeStepSchedule:
    def test_valid_schedule(self):
        dfg = paper_fig2_dfg()
        sched = asap_schedule(dfg)
        assert sched.num_steps == 4
        assert sched.ops_in_step(0) == ("o0", "o3")

    def test_dependency_violation_rejected(self):
        dfg = paper_fig2_dfg()
        start = {op.name: 0 for op in dfg}
        with pytest.raises(SchedulingError, match="dependency violated"):
            TimeStepSchedule(dfg=dfg, start=start)

    def test_missing_op_rejected(self):
        dfg = paper_fig2_dfg()
        with pytest.raises(SchedulingError, match="not scheduled"):
            TimeStepSchedule(dfg=dfg, start={"o0": 0})

    def test_negative_step_rejected(self):
        dfg = paper_fig2_dfg()
        start = dict(asap_schedule(dfg).start)
        start["o0"] = -1
        with pytest.raises(SchedulingError, match="negative"):
            TimeStepSchedule(dfg=dfg, start=start)

    def test_resource_usage(self):
        sched = asap_schedule(paper_fig2_dfg())
        usage = sched.resource_usage()
        assert usage[ResourceClass.MULTIPLIER] == 2
        assert usage[ResourceClass.ADDER] == 1

    def test_describe_lists_steps(self):
        text = asap_schedule(paper_fig2_dfg()).describe()
        assert "T0" in text and "o0" in text


class TestOrderSchedule:
    def test_chain_class_mismatch_rejected(self):
        dfg = paper_fig2_dfg()
        with pytest.raises(SchedulingError, match="has class"):
            OrderSchedule(
                dfg=dfg,
                chains={
                    ResourceClass.MULTIPLIER: (("o0", "o1"),),
                    ResourceClass.ADDER: (("o3", "o2", "o4", "o5"),),
                },
                schedule_arcs=(),
            )

    def test_double_assignment_rejected(self):
        dfg = paper_fig2_dfg()
        with pytest.raises(SchedulingError, match="two chains"):
            OrderSchedule(
                dfg=dfg,
                chains={
                    ResourceClass.MULTIPLIER: (
                        ("o0", "o2"),
                        ("o3", "o4", "o0"),
                    ),
                    ResourceClass.ADDER: (("o1", "o5"),),
                },
                schedule_arcs=(),
            )

    def test_unassigned_rejected(self):
        dfg = paper_fig2_dfg()
        with pytest.raises(SchedulingError, match="not assigned"):
            OrderSchedule(
                dfg=dfg,
                chains={ResourceClass.MULTIPLIER: (("o0",),)},
                schedule_arcs=(),
            )

    def test_chain_of(self, fig3_result):
        from repro.errors import ReproError

        order = fig3_result.order
        assert "o0" in order.chain_of("o0")
        with pytest.raises(ReproError):
            order.chain_of("nonexistent")

    def test_execution_edges_superset_of_data_edges(self, fig3_result):
        edges = set(fig3_result.order.execution_edges())
        assert set(fig3_result.dfg.edges()) <= edges

    def test_num_units_required(self, fig3_result):
        required = fig3_result.order.num_units_required()
        assert required[ResourceClass.MULTIPLIER] == 2
        assert required[ResourceClass.ADDER] == 2


class TestTaubmSchedule:
    def test_min_max_cycles(self, fig2_result):
        taubm = fig2_result.taubm
        assert taubm.min_cycles() == 4
        assert taubm.max_cycles() == 6

    def test_cycles_for_assignment(self, fig2_result):
        taubm = fig2_result.taubm
        tau_ops = [op for s in taubm.steps for op in s.tau_ops]
        all_fast = {op: True for op in tau_ops}
        assert taubm.cycles_for(all_fast) == 4
        one_slow = dict(all_fast)
        one_slow[tau_ops[0]] = False
        assert taubm.cycles_for(one_slow) == 5

    def test_expected_cycles_formula(self, fig2_result):
        taubm = fig2_result.taubm
        p = 0.7
        expected = taubm.expected_cycles(p)
        manual = 0.0
        for step in taubm.steps:
            manual += 1.0
            if step.has_extension:
                manual += 1.0 - p ** len(step.tau_ops)
        assert expected == pytest.approx(manual)

    def test_expected_cycles_bounds(self, fig2_result):
        taubm = fig2_result.taubm
        assert taubm.expected_cycles(1.0) == taubm.min_cycles()
        assert taubm.expected_cycles(0.0) == taubm.max_cycles()

    def test_step_fixed_ops(self):
        step = TaubmStep(index=0, ops=("a", "b", "c"), tau_ops=("b",))
        assert step.fixed_ops == ("a", "c")
        assert step.has_extension
