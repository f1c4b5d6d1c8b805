"""End-to-end edge cases: degenerate graphs through the full flow."""

from repro.api import synthesize
from repro.analysis.latency import DistLatencyEvaluator
from repro.core.builder import DFGBuilder
from repro.resources import (
    AllFastCompletion,
    AllSlowCompletion,
    BernoulliCompletion,
)
from repro.sim import simulate, simulate_assignment


def _run_all_styles(result, inputs):
    reference = result.dfg.evaluate(inputs)
    for system in (
        result.distributed_system(),
        result.cent_sync_system(),
        result.cent_system(),
    ):
        sim = simulate(
            system, result.bound, AllSlowCompletion(), inputs=inputs
        )
        for out_name in result.dfg.outputs:
            assert sim.datapath.output_values()[out_name] == reference[
                out_name
            ]
    return reference


class TestSingleOperation:
    def test_single_mult(self):
        b = DFGBuilder("one")
        x = b.input("x")
        m = b.mul("m", x, 7)
        b.output("y", m)
        result = synthesize(b.build(), "mul:1T,add:1")
        _run_all_styles(result, {"x": 6})
        fast = simulate(
            result.distributed_system(), result.bound, AllFastCompletion()
        )
        slow = simulate(
            result.distributed_system(), result.bound, AllSlowCompletion()
        )
        assert fast.cycles == 1
        assert slow.cycles == 2

    def test_single_fixed_op(self):
        b = DFGBuilder("oneadd")
        x = b.input("x")
        a = b.add("a", x, 1)
        b.output("y", a)
        result = synthesize(b.build(), "mul:1T,add:1")
        sim = simulate(
            result.distributed_system(), result.bound, AllFastCompletion()
        )
        assert sim.cycles == 1


class TestDegenerateShapes:
    def test_deep_serial_chain(self):
        b = DFGBuilder("deep")
        node = b.input("x")
        for i in range(20):
            node = (
                b.mul(f"m{i}", node, 3)
                if i % 2 == 0
                else b.add(f"a{i}", node, 1)
            )
        b.output("y", node)
        result = synthesize(b.build(), "mul:1T,add:1")
        # Zero concurrency: DIST == SYNC on every assignment.
        evaluator = DistLatencyEvaluator(result.bound)
        for value in (True, False):
            fast = {op: value for op in result.bound.telescopic_ops()}
            assert evaluator(fast) == result.taubm.cycles_for(fast)

    def test_wide_parallel_graph(self):
        b = DFGBuilder("wide")
        products = [
            b.mul(f"m{i}", b.input(f"x{i}"), i + 2) for i in range(10)
        ]
        acc = products[0]
        for i, p in enumerate(products[1:], 1):
            acc = b.add(f"a{i}", acc, p)
        b.output("y", acc)
        result = synthesize(b.build(), "mul:2T,add:1")
        sim = simulate(
            result.distributed_system(),
            result.bound,
            BernoulliCompletion(0.5),
            seed=1,
            inputs={f"x{i}": i + 1 for i in range(10)},
        )
        assert sim.cycles == DistLatencyEvaluator(result.bound)(
            {
                op: sim.fast_outcomes[op][0]
                for op in result.bound.telescopic_ops()
            }
        )

    def test_op_feeding_many_consumers(self):
        """One producer fanning out to several consumers on one unit —
        the per-edge token regression case."""
        b = DFGBuilder("fanout")
        x = b.input("x")
        root = b.mul("root", x, 2)
        sinks = [b.mul(f"s{i}", root, i + 3) for i in range(4)]
        acc = sinks[0]
        for i, s in enumerate(sinks[1:], 1):
            acc = b.add(f"a{i}", acc, s)
        b.output("y", acc)
        result = synthesize(b.build(), "mul:1T,add:1")
        _run_all_styles(result, {"x": 5})

    def test_squaring_same_producer_both_ports(self):
        b = DFGBuilder("square")
        x = b.input("x")
        m = b.mul("m", x, x)
        sq = b.mul("sq", m, m)
        b.output("y", sq)
        result = synthesize(b.build(), "mul:1T,add:1")
        reference = _run_all_styles(result, {"x": 3})
        assert reference["y"] == 81

    def test_all_outputs_from_one_op(self):
        b = DFGBuilder("multiout")
        x = b.input("x")
        m = b.mul("m", x, 5)
        b.output("a", m)
        b.output("b", m)
        result = synthesize(b.build(), "mul:1T,add:1")
        sim = simulate(
            result.distributed_system(),
            result.bound,
            AllFastCompletion(),
            inputs={"x": 4},
        )
        assert sim.datapath.output_values() == {"a": 20, "b": 20}


class TestExtremeAssignments:
    def test_alternating_assignment_exhaustive_small(self, fig2_result):
        import itertools

        tau_ops = fig2_result.bound.telescopic_ops()
        evaluator = DistLatencyEvaluator(fig2_result.bound)
        for values in itertools.product((False, True), repeat=len(tau_ops)):
            fast = dict(zip(tau_ops, values))
            sim = simulate_assignment(
                fig2_result.distributed_system(), fig2_result.bound, fast
            )
            assert sim.cycles == evaluator(fast)

    def test_many_iterations_stay_consistent(self, fig2_result):
        sim = simulate(
            fig2_result.distributed_system(),
            fig2_result.bound,
            BernoulliCompletion(0.5),
            iterations=16,
            seed=9,
            inputs={n: 2 for n in fig2_result.dfg.inputs},
        )
        assert len(sim.iteration_finish_cycles) == 16
        finishes = sim.iteration_finish_cycles
        assert all(b > a for a, b in zip(finishes, finishes[1:]))
