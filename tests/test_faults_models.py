"""Unit tests for the deterministic fault injectors in repro.faults.

Each injector gets one headline test: inject the fault, assert the
matching safety net fires (or, for latency-only faults, that the run
completes bit-correct at a measurable latency cost).  The parameters are
fixed — a failing test here means detection behavior changed, not that a
random draw got unlucky.
"""

import dataclasses

import pytest

from repro.errors import DeadlockError, ProtocolError, SimulationError
from repro.faults import (
    DelayedCompletionFault,
    DroppedPulseFault,
    FaultyControllerSystem,
    IntermittentCompletion,
    SpuriousPulseFault,
    StateFlipFault,
    StuckCompletionFault,
    inject,
)
from repro.fsm.signals import unit_of_completion
from repro.resources import AllFastCompletion, AllSlowCompletion
from repro.sim import simulate


def _producers(result):
    edges = result.distributed_system().dependence_edges()
    return sorted({producer for (_, _, producer) in edges})


def _units(result):
    system = result.distributed_system()
    return sorted(
        unit_of_completion(s) for s in system.unit_completion_inputs()
    )


class TestStuckCompletion:
    def test_stuck_at_1_caught_by_timing_monitor(self, fig3_result):
        """CSG lies fast while the telescope sampled slow: the controller
        completes the op before its level's delay is covered."""
        unit = _units(fig3_result)[0]
        system = inject(
            fig3_result.distributed_system(),
            StuckCompletionFault(unit=unit, value=True),
        )
        with pytest.raises(ProtocolError, match="completion signal lied") as e:
            simulate(system, fig3_result.bound, AllSlowCompletion())
        assert e.value.kind == "timing"
        assert e.value.unit == unit

    def test_stuck_at_0_degrades_to_worst_case(self, fig3_result):
        """CSG lies slow: two-level controllers fall back to the worst-case
        delay — the paper's fail-safe property.  Functionally correct, only
        latency is lost."""
        clean = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
        )
        unit = _units(fig3_result)[0]
        system = inject(
            fig3_result.distributed_system(),
            StuckCompletionFault(unit=unit, value=False),
        )
        faulty = simulate(system, fig3_result.bound, AllFastCompletion())
        assert faulty.cycles > clean.cycles

    def test_window_bounds_respected(self, fig3_result):
        """A stuck window entirely after the run is a no-op."""
        clean = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
        )
        unit = _units(fig3_result)[0]
        system = inject(
            fig3_result.distributed_system(),
            StuckCompletionFault(
                unit=unit,
                value=True,
                first_cycle=clean.cycles + 100,
                last_cycle=clean.cycles + 200,
            ),
        )
        faulty = simulate(system, fig3_result.bound, AllFastCompletion())
        assert faulty.cycles == clean.cycles


class TestDelayedCompletion:
    def test_costs_latency_only(self, fig3_result):
        clean = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
        )
        unit = _units(fig3_result)[0]
        system = inject(
            fig3_result.distributed_system(),
            DelayedCompletionFault(unit=unit, delay=2),
        )
        faulty = simulate(system, fig3_result.bound, AllFastCompletion())
        assert faulty.cycles > clean.cycles

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(SimulationError):
            DelayedCompletionFault(unit="TM1", delay=0)


class TestDroppedPulse:
    def test_feedback_graph_deadlocks_and_names_the_net(self, fig2_result):
        """On the Fig. 2 feedback structure a single lost token is fatal;
        the watchdog's diagnostic names the starved net."""
        victim = _producers(fig2_result)[0]
        system = inject(
            fig2_result.distributed_system(),
            DroppedPulseFault(producer_op=victim),
        )
        with pytest.raises(DeadlockError) as excinfo:
            simulate(system, fig2_result.bound, AllFastCompletion())
        starved_nets = {
            producer for (_, _, producer) in excinfo.value.starved_edges
        }
        assert victim in starved_nets
        assert f"CC_{victim}" in str(excinfo.value)

    def test_feedforward_graph_self_heals_at_latency_cost(self, fig3_result):
        """On a feed-forward graph the producer's wrap-around re-execution
        re-emits the pulse: the starved consumer revives one iteration
        late and the run completes bit-correct."""
        clean = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
        )
        victim = _producers(fig3_result)[0]
        system = inject(
            fig3_result.distributed_system(),
            DroppedPulseFault(producer_op=victim),
        )
        healed = simulate(system, fig3_result.bound, AllFastCompletion())
        assert healed.cycles > clean.cycles

    def test_permanent_cut_always_deadlocks(self, fig3_result):
        """occurrence=None cuts the net for good — no wrap-around pulse can
        ever revive the consumer, even on a feed-forward graph."""
        victim = _producers(fig3_result)[0]
        system = inject(
            fig3_result.distributed_system(),
            DroppedPulseFault(producer_op=victim, occurrence=None),
        )
        with pytest.raises(DeadlockError):
            simulate(system, fig3_result.bound, AllFastCompletion())


class TestSpuriousPulse:
    def test_unearned_token_causes_premature_start(self, fig3_result):
        victim = _producers(fig3_result)[0]
        system = inject(
            fig3_result.distributed_system(),
            SpuriousPulseFault(producer_op=victim, cycle=0),
        )
        inputs = {n: i + 1 for i, n in enumerate(fig3_result.dfg.inputs)}
        with pytest.raises(ProtocolError, match="control bug") as excinfo:
            simulate(
                system,
                fig3_result.bound,
                AllSlowCompletion(),
                inputs=inputs,
            )
        assert excinfo.value.kind == "premature-start"


class TestStateFlip:
    def test_seu_detected_by_protocol_monitors(self, fig3_result):
        inputs = {n: i + 1 for i, n in enumerate(fig3_result.dfg.inputs)}
        system = inject(
            fig3_result.distributed_system(),
            StateFlipFault(controller="TM1", cycle=0, pick=0),
        )
        with pytest.raises((ProtocolError, DeadlockError)):
            simulate(
                system,
                fig3_result.bound,
                AllFastCompletion(),
                inputs=inputs,
            )

    def test_unknown_controller_rejected(self, fig3_result):
        system = inject(
            fig3_result.distributed_system(),
            StateFlipFault(controller="nope", cycle=0),
        )
        with pytest.raises(SimulationError, match="not a"):
            simulate(system, fig3_result.bound, AllFastCompletion())

    def test_flip_rewrites_only_the_config(self, fig3_result):
        """Every step field but the flipped state survives the flip."""
        inner = fig3_result.distributed_system()
        config = inner.initial_config()
        for _ in range(8):
            step = inner.step(config, {"TM1": True, "TM2": True})
            if step.emitters:
                break
            config = step.config
        assert step.emitters
        flip = StateFlipFault(controller="TM1", cycle=0, pick=1)
        flipped = flip.after_step(0, inner, config, step)
        index = inner.keys.index("TM1")
        assert flipped.config.states[index] != step.config.states[index]
        assert flipped.config.flags == step.config.flags
        for field in dataclasses.fields(step):
            if field.name != "config":
                assert getattr(flipped, field.name) == getattr(
                    step, field.name
                ), field.name

    def test_faulty_trial_reads_the_shared_table(
        self, fig3_result, monkeypatch
    ):
        """A fault that never fires replays the clean run from the table."""
        inner = fig3_result.distributed_system()
        inputs = {n: i + 1 for i, n in enumerate(fig3_result.dfg.inputs)}
        clean = simulate(
            inner, fig3_result.bound, AllFastCompletion(), inputs=inputs
        )
        calls = []
        real_step = inner.step

        def counted(*args, **kwargs):
            calls.append(args)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(inner, "step", counted)
        late = StateFlipFault(controller="TM1", cycle=clean.cycles + 5)
        faulty = simulate(
            inject(inner, late),
            fig3_result.bound,
            AllFastCompletion(),
            inputs=inputs,
        )
        assert faulty.cycles == clean.cycles
        assert calls == []


class TestIntermittentCompletion:
    def test_slow_drift_is_tolerated(self, fig3_result):
        """Ground truth and report stay consistent — the control unit must
        absorb the slow execution with latency only."""
        clean = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
        )
        ops = sorted(
            op
            for op in fig3_result.distributed_system().all_ops()
            if fig3_result.bound.unit_of(op).is_telescopic
        )
        op = ops[0]
        model = IntermittentCompletion(
            inner=AllFastCompletion(), op=op, executions=(0,)
        )
        faulty = simulate(
            fig3_result.distributed_system(), fig3_result.bound, model
        )
        worst = fig3_result.bound.unit_of(op).num_levels - 1
        assert faulty.level_outcomes[op][0] == worst
        assert faulty.cycles >= clean.cycles


class TestInjectorPlumbing:
    def test_inject_requires_at_least_one_fault(self, fig3_result):
        with pytest.raises(SimulationError):
            inject(fig3_result.distributed_system())

    def test_fault_horizon_is_max_over_injectors(self, fig3_result):
        system = inject(
            fig3_result.distributed_system(),
            SpuriousPulseFault(producer_op="o1", cycle=3),
            StateFlipFault(controller="TM1", cycle=9),
            DroppedPulseFault(producer_op="o1"),  # reactive: horizon -1
        )
        assert isinstance(system, FaultyControllerSystem)
        assert system.fault_horizon == 9

    def test_describe_and_target_name_the_fault_site(self):
        faults = [
            StuckCompletionFault(unit="TM1", value=True),
            DelayedCompletionFault(unit="TM2", delay=2),
            DroppedPulseFault(producer_op="o3"),
            SpuriousPulseFault(producer_op="o4", cycle=5),
            StateFlipFault(controller="A1", cycle=1),
        ]
        sites = ["TM1", "TM2", "o3", "o4", "A1"]
        for fault, site in zip(faults, sites):
            assert site in fault.describe()
            assert fault.kind in fault.target()["kind"]
            assert site in str(fault.target().values())
