"""Tests for the multi-level VCAU generalization (paper §6 future work)."""

import itertools

import pytest

from repro.analysis.exact_engine import analyze_dist
from repro.analysis.latency import DistLatencyEvaluator, duration_table
from repro.api import synthesize
from repro.benchmarks import fir3, paper_fig3_dfg
from repro.core.ops import ResourceClass
from repro.errors import AllocationError, SimulationError
from repro.resources import (
    CategoricalCompletion,
    LevelAssignmentCompletion,
    MultiLevelTelescopicUnit,
    ResourceAllocation,
)
from repro.sim import simulate


def three_level_allocation(mults=2, adders=1):
    return ResourceAllocation.build(
        {ResourceClass.MULTIPLIER: mults, ResourceClass.ADDER: adders},
        level_delays_ns=(15.0, 30.0, 45.0),
        fixed_delay_ns=15.0,
    )


@pytest.fixture(scope="module")
def ml_result():
    return synthesize(fir3(), three_level_allocation())


class TestUnitModel:
    def test_level_delays(self):
        unit = MultiLevelTelescopicUnit(
            "TM1", ResourceClass.MULTIPLIER, delays_ns=(10.0, 20.0, 35.0)
        )
        assert unit.num_levels == 3
        assert unit.worst_delay_ns == 35.0
        assert unit.level_cycles(10.0, 0) == 1
        assert unit.level_cycles(10.0, 1) == 2
        assert unit.level_cycles(10.0, 2) == 4

    def test_levels_must_ascend(self):
        with pytest.raises(AllocationError, match="ascending"):
            MultiLevelTelescopicUnit(
                "TM1", ResourceClass.MULTIPLIER, delays_ns=(20.0, 10.0)
            )

    def test_needs_two_levels(self):
        with pytest.raises(AllocationError, match="at least two"):
            MultiLevelTelescopicUnit(
                "TM1", ResourceClass.MULTIPLIER, delays_ns=(20.0,)
            )

    def test_two_level_unit_exposes_levels(self):
        alloc = ResourceAllocation.parse("mul:1T,add:1")
        tau = alloc.telescopic_units()[0]
        assert tau.level_delays_ns == (15.0, 20.0)
        assert tau.num_levels == 2

    def test_fixed_unit_single_level(self):
        alloc = ResourceAllocation.parse("mul:1T,add:1")
        adder = alloc.unit("A1")
        assert adder.num_levels == 1

    def test_allocation_clock_uses_first_level(self):
        assert three_level_allocation().clock_period_ns() == 15.0


class TestCompletionModels:
    def test_categorical_probabilities_checked(self):
        with pytest.raises(SimulationError, match="sum to 1"):
            CategoricalCompletion((0.5, 0.2))

    def test_categorical_level_count_checked(self, ml_result):
        import random

        unit = ml_result.allocation.telescopic_units()[0]
        model = CategoricalCompletion((0.5, 0.5))
        with pytest.raises(SimulationError, match="levels"):
            model.sample_level("m0", unit, None, random.Random(0))

    def test_categorical_distribution(self, ml_result):
        import random

        unit = ml_result.allocation.telescopic_units()[0]
        model = CategoricalCompletion((0.6, 0.3, 0.1))
        rng = random.Random(0)
        counts = [0, 0, 0]
        for _ in range(3000):
            counts[model.sample_level("m0", unit, None, rng)] += 1
        assert abs(counts[0] / 3000 - 0.6) < 0.05
        assert abs(counts[2] / 3000 - 0.1) < 0.03

    def test_level_assignment(self, ml_result):
        import random

        unit = ml_result.allocation.telescopic_units()[0]
        model = LevelAssignmentCompletion({"m0": 2})
        assert model.sample_level("m0", unit, None, random.Random(0)) == 2
        with pytest.raises(SimulationError, match="no level"):
            model.sample_level("zz", unit, None, random.Random(0))


class TestAlgorithm1MultiLevel:
    def test_extension_chain_depth(self, ml_result):
        """45 ns at a 15 ns clock → 3 cycles → S, SX, SX3 per op."""
        fsm = ml_result.distributed.controller("TM1")
        ops = ml_result.bound.ops_on_unit("TM1")
        for op in ops:
            assert f"SX_{op}" in fsm.states
            assert f"SX3_{op}" in fsm.states
        fsm.validate()

    def test_sync_fsm_extension_chain(self, ml_result):
        fsm = ml_result.cent_sync_fsm
        assert any("_3" in s for s in fsm.states)
        fsm.validate()


class TestSemantics:
    def test_simulator_matches_exact_enumeration(self, ml_result):
        """Exhaustive: every level assignment, simulator == longest path."""
        evaluator = DistLatencyEvaluator(ml_result.bound)
        system = ml_result.distributed_system()
        tau_ops = ml_result.bound.telescopic_ops()
        for levels in itertools.product(range(3), repeat=len(tau_ops)):
            assignment = dict(zip(tau_ops, levels))
            durations = {
                op: ml_result.bound.duration_for_level(op, level)
                for op, level in assignment.items()
            }
            sim = simulate(
                system,
                ml_result.bound,
                LevelAssignmentCompletion(assignment),
            )
            assert sim.cycles == evaluator.for_durations(durations), levels

    def test_sync_matches_step_model(self, ml_result):
        system = ml_result.cent_sync_system()
        tau_ops = ml_result.bound.telescopic_ops()
        for levels in itertools.product(range(3), repeat=len(tau_ops)):
            assignment = dict(zip(tau_ops, levels))
            durations = {
                op: ml_result.bound.duration_for_level(op, level)
                for op, level in assignment.items()
            }
            sim = simulate(
                system,
                ml_result.bound,
                LevelAssignmentCompletion(assignment),
            )
            expected = ml_result.taubm.cycles_for_durations(durations)
            assert sim.cycles == expected, levels

    def test_dist_dominates_sync_on_levels(self, ml_result):
        evaluator = DistLatencyEvaluator(ml_result.bound)
        tau_ops = ml_result.bound.telescopic_ops()
        for levels in itertools.product(range(3), repeat=len(tau_ops)):
            durations = {
                op: ml_result.bound.duration_for_level(op, level)
                for op, level in zip(tau_ops, levels)
            }
            assert evaluator.for_durations(
                durations
            ) <= ml_result.taubm.cycles_for_durations(durations)

    def test_datapath_correct_under_levels(self, ml_result):
        inputs = {f"x{i}": i + 2 for i in range(3)}
        sim = simulate(
            ml_result.distributed_system(),
            ml_result.bound,
            CategoricalCompletion((0.3, 0.4, 0.3)),
            seed=7,
            inputs=inputs,
        )
        reference = ml_result.dfg.evaluate(inputs)
        assert sim.datapath.output_values()["y"] == reference["y"]

    def test_level_outcomes_recorded(self, ml_result):
        sim = simulate(
            ml_result.distributed_system(),
            ml_result.bound,
            LevelAssignmentCompletion(
                {op: 1 for op in ml_result.bound.telescopic_ops()}
            ),
        )
        for op in ml_result.bound.telescopic_ops():
            assert sim.level_outcomes[op][0] == 1
            assert sim.fast_outcomes[op][0] is False


class TestDurationTable:
    def test_quantized_levels_merge(self):
        """Levels mapping to the same cycle count merge probabilities."""
        alloc = ResourceAllocation.build(
            {ResourceClass.MULTIPLIER: 2, ResourceClass.ADDER: 1},
            level_delays_ns=(15.0, 20.0, 30.0),  # cycles 1, 2, 2
            fixed_delay_ns=15.0,
        )
        result = synthesize(fir3(), alloc)
        table = duration_table(result.bound, (0.5, 0.3, 0.2))
        for rows in table.values():
            assert rows == ((1, 0.5), (2, 0.5))

    def test_expectation_interpolates(self, ml_result):
        evaluator = DistLatencyEvaluator(ml_result.bound)
        all_fast = duration_table(ml_result.bound, (1.0, 0.0, 0.0))
        all_slow = duration_table(ml_result.bound, (0.0, 0.0, 1.0))
        mixed = duration_table(ml_result.bound, (0.5, 0.3, 0.2))
        best = analyze_dist(evaluator, all_fast).expectation
        worst = analyze_dist(evaluator, all_slow).expectation
        middle = analyze_dist(evaluator, mixed).expectation
        assert best <= middle <= worst


def test_product_fsm_multilevel(ml_result):
    """CENT product still equals DIST cycle counts under levels."""
    cent = ml_result.cent_system()
    dist = ml_result.distributed_system()
    tau_ops = ml_result.bound.telescopic_ops()
    for levels in itertools.product(range(3), repeat=len(tau_ops)):
        model = LevelAssignmentCompletion(dict(zip(tau_ops, levels)))
        cent_sim = simulate(cent, ml_result.bound, model)
        dist_sim = simulate(dist, ml_result.bound, model)
        assert cent_sim.cycles == dist_sim.cycles, levels


class TestMultiLevelBackends:
    def test_verilog_emits_extension_chain(self, ml_result):
        from repro.fsm.verilog import fsm_to_verilog

        fsm = ml_result.distributed.controller("TM1")
        text = fsm_to_verilog(fsm)
        assert "ST_SX3_" in text  # third-cycle states present
        assert "endmodule" in text

    def test_vcd_handles_multilevel_trace(self, ml_result):
        from repro.resources import CategoricalCompletion
        from repro.sim import simulate, trace_to_vcd

        sim = simulate(
            ml_result.distributed_system(),
            ml_result.bound,
            CategoricalCompletion((0.2, 0.3, 0.5)),
            seed=3,
            record_trace=True,
        )
        text = trace_to_vcd(sim)
        assert "$enddefinitions" in text

    def test_serialization_round_trip_multilevel(self, ml_result):
        from repro.serialize import fsm_from_dict, fsm_to_dict

        for fsm in ml_result.distributed.controllers.values():
            clone = fsm_from_dict(fsm_to_dict(fsm))
            assert clone.states == fsm.states

    def test_area_model_handles_extension_chains(self, ml_result):
        from repro.fsm import fsm_area

        report = fsm_area(ml_result.distributed.controller("TM1"))
        # TM1 holds two ops at 3 states each (S, SX, SX3).
        assert report.num_states == 3 * len(
            ml_result.bound.ops_on_unit("TM1")
        )
        assert report.combinational_area > 0
