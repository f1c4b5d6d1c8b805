"""Tests for JSON serialization of graphs, FSMs and designs."""

import pytest

from repro.errors import ReproError
from repro.serialize import (
    design_to_dict,
    dumps,
    fsm_from_dict,
    fsm_to_dict,
    loads,
)


class TestFsmRoundTrip:
    def test_controllers_round_trip(self, fig3_result):
        for fsm in fig3_result.distributed.controllers.values():
            clone = fsm_from_dict(loads(dumps(fsm_to_dict(fsm))))
            assert clone.states == fsm.states
            assert clone.initial == fsm.initial
            assert clone.inputs == fsm.inputs
            assert clone.outputs == fsm.outputs
            assert clone.initial_starts == fsm.initial_starts
            assert set(clone.transitions) == set(fsm.transitions)

    def test_deserialized_fsm_simulates_identically(self, fig3_result):
        from repro.resources import AllSlowCompletion
        from repro.sim import simulate, system_from_bound

        clones = {
            unit: fsm_from_dict(fsm_to_dict(fsm))
            for unit, fsm in fig3_result.distributed.controllers.items()
        }
        system = system_from_bound(fig3_result.bound, clones)
        original = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllSlowCompletion(),
        )
        restored = simulate(system, fig3_result.bound, AllSlowCompletion())
        assert restored.cycles == original.cycles
        assert restored.finish_cycles == original.finish_cycles

    def test_validation_on_load(self, fig3_result):
        fsm = fig3_result.distributed.controller("TM1")
        data = fsm_to_dict(fsm)
        data["transitions"] = data["transitions"][:2]
        from repro.errors import FSMError

        with pytest.raises(FSMError):
            fsm_from_dict(data)


class TestPipelineArtifactRoundTrip:
    """Every pipeline artifact survives a JSON round-trip byte-for-byte."""

    def test_schedule(self, fig3_result):
        from repro.serialize import schedule_from_dict, schedule_to_dict

        schedule = fig3_result.schedule
        clone = schedule_from_dict(
            loads(dumps(schedule_to_dict(schedule))), fig3_result.dfg
        )
        assert clone == schedule
        assert dumps(schedule_to_dict(clone)) == dumps(
            schedule_to_dict(schedule)
        )

    def test_order(self, fig3_result):
        from repro.serialize import order_from_dict, order_to_dict

        order = fig3_result.order
        clone = order_from_dict(
            loads(dumps(order_to_dict(order))), fig3_result.dfg
        )
        assert clone == order
        assert dumps(order_to_dict(clone)) == dumps(order_to_dict(order))

    def test_bound(self, fig3_result):
        from repro.perf.cache import artifact_fingerprint
        from repro.serialize import bound_from_dict, bound_to_dict

        bound = fig3_result.bound
        clone = bound_from_dict(
            loads(dumps(bound_to_dict(bound))),
            fig3_result.dfg,
            fig3_result.allocation,
        )
        assert clone.binding == bound.binding
        assert artifact_fingerprint(clone) == artifact_fingerprint(bound)

    def test_taubm(self, fig3_result):
        from repro.perf.cache import artifact_fingerprint
        from repro.serialize import taubm_from_dict, taubm_to_dict

        taubm = fig3_result.taubm
        clone = taubm_from_dict(
            loads(dumps(taubm_to_dict(taubm))), fig3_result.dfg
        )
        assert artifact_fingerprint(clone) == artifact_fingerprint(taubm)

    def test_distributed(self, fig3_result):
        from repro.perf.cache import artifact_fingerprint
        from repro.serialize import (
            distributed_from_dict,
            distributed_to_dict,
        )

        distributed = fig3_result.distributed
        clone = distributed_from_dict(
            loads(dumps(distributed_to_dict(distributed))),
            fig3_result.bound,
        )
        assert clone.unit_names == distributed.unit_names
        assert clone.pruned_signals == distributed.pruned_signals
        assert artifact_fingerprint(clone) == artifact_fingerprint(
            distributed
        )

    def test_distributed_clone_simulates_identically(self, fig3_result):
        from repro.resources import AllSlowCompletion
        from repro.serialize import (
            distributed_from_dict,
            distributed_to_dict,
        )
        from repro.sim import simulate, system_from_bound

        clone = distributed_from_dict(
            distributed_to_dict(fig3_result.distributed), fig3_result.bound
        )
        original = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllSlowCompletion(),
        )
        restored = simulate(
            system_from_bound(fig3_result.bound, dict(clone.controllers)),
            fig3_result.bound,
            AllSlowCompletion(),
        )
        assert restored.cycles == original.cycles
        assert restored.finish_cycles == original.finish_cycles

    def test_bad_formats_rejected(self, fig3_result):
        from repro.serialize import (
            bound_from_dict,
            distributed_from_dict,
            order_from_dict,
            schedule_from_dict,
            taubm_from_dict,
        )

        cases = [
            (schedule_from_dict, (fig3_result.dfg,)),
            (order_from_dict, (fig3_result.dfg,)),
            (bound_from_dict, (fig3_result.dfg, fig3_result.allocation)),
            (taubm_from_dict, (fig3_result.dfg,)),
            (distributed_from_dict, (fig3_result.bound,)),
        ]
        for loader, context in cases:
            with pytest.raises(ReproError, match="unsupported"):
                loader({"format": 99}, *context)


class TestDesignRecord:
    def test_design_record_fields(self, fig3_result):
        record = design_to_dict(fig3_result)
        assert record["clock_ns"] == 15.0
        assert record["binding"]["o0"] == "TM1"
        assert record["schedule"]["o0"] == 0
        assert set(record["controllers"]) == set(
            fig3_result.distributed.unit_names
        )
        assert "CC_o5" in record["pruned_signals"]

    def test_design_record_json_stable(self, fig3_result):
        a = dumps(design_to_dict(fig3_result))
        b = dumps(design_to_dict(fig3_result))
        assert a == b

    def test_multilevel_allocation_recorded(self):
        from repro.api import synthesize
        from repro.benchmarks import fir3
        from repro.core.ops import ResourceClass
        from repro.resources import ResourceAllocation

        alloc = ResourceAllocation.build(
            {ResourceClass.MULTIPLIER: 2, ResourceClass.ADDER: 1},
            level_delays_ns=(15.0, 30.0, 45.0),
        )
        record = design_to_dict(synthesize(fir3(), alloc))
        tau = next(
            u for u in record["allocation"] if u["name"] == "TM1"
        )
        assert tau["level_delays_ns"] == [15.0, 30.0, 45.0]
