"""Unit tests for the communicating controller system runtime."""

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks.registry import benchmark, core_benchmark_names
from repro.errors import SimulationError
from repro.experiments.common import synthesize_entry
from repro.faults import DroppedPulseFault, SpuriousPulseFault, inject
from repro.fsm.algorithm1 import derive_all_unit_controllers
from repro.fsm.model import FSM, make_transition
from repro.fsm.signals import unit_of_completion
from repro.sim.controllers import (
    ControllerSystem,
    single_fsm_system,
    system_from_bound,
)
from reference_step import reference_step


@pytest.fixture()
def system(fig3_result) -> ControllerSystem:
    return fig3_result.distributed.system()


class TestConfig:
    def test_initial_config(self, system, fig3_result):
        config = system.initial_config()
        assert len(config.states) == len(system.keys)
        assert config.flags == frozenset()

    def test_initial_starts_are_source_chain_heads(
        self, system, fig3_result
    ):
        bound = fig3_result.bound
        expected = {
            bound.ops_on_unit(u.name)[0]
            for u in bound.used_units()
            if not bound.cross_unit_predecessors(
                bound.ops_on_unit(u.name)[0]
            )
        }
        assert system.initial_starts() == expected

    def test_all_ops(self, system, fig3_result):
        assert system.all_ops() == set(fig3_result.dfg.op_names())


class TestStep:
    def test_pulse_delivered_same_cycle(self, system, fig3_result):
        """A completion pulse is visible to a waiting consumer in the same
        cycle (the consumer transitions at the same clock edge)."""
        config = system.initial_config()
        # Run all-fast until some flag or a cross-unit start appears.
        seen_cross_start = False
        bound = fig3_result.bound
        for _ in range(12):
            step = system.step(
                config, {u.name: True for u in bound.used_units()}
            )
            for op in step.starts:
                if bound.cross_unit_predecessors(op):
                    seen_cross_start = True
            config = step.config
        assert seen_cross_start

    def test_flag_latched_until_consumed(self, system, fig3_result):
        """If a producer finishes while the consumer is busy, the arrival
        flag persists across cycles."""
        bound = fig3_result.bound
        config = system.initial_config()
        saw_flag = False
        for _ in range(16):
            step = system.step(config, {})  # every TAU slow
            if step.config.flags:
                saw_flag = True
            config = step.config
        assert saw_flag

    def test_deterministic(self, system):
        a = system.initial_config()
        b = system.initial_config()
        for _ in range(10):
            a = system.step(a, {"TM1": True, "TM2": False}).config
            b = system.step(b, {"TM1": True, "TM2": False}).config
        assert a == b

    def test_output_independence_enforced(self):
        """A controller whose outputs depend on a CC input is rejected."""
        bad = FSM(
            name="bad",
            states=("A", "B"),
            initial="A",
            inputs=("CC_x",),
            outputs=("OF_y",),
            transitions=(
                make_transition(
                    "A", "B", {"CC_x": True}, ("OF_y",), queries="j"
                ),
                make_transition("A", "A", {"CC_x": False}, (), queries="j"),
                make_transition("B", "B", {}, ()),
            ),
        )
        producer = FSM(
            name="prod",
            states=("P",),
            initial="P",
            inputs=(),
            outputs=("CC_x",),
            transitions=(make_transition("P", "P", {}, ("CC_x",)),),
        )
        system = ControllerSystem(
            controllers={"u1": producer, "u2": bad},
            consumes={("u2", "j"): ("x",)},
        )
        with pytest.raises(SimulationError, match="outputs depend"):
            system.step(system.initial_config(), {})

    def test_empty_system_rejected(self):
        with pytest.raises(SimulationError, match=">= 1"):
            ControllerSystem(controllers={}, consumes={})


class TestTokenSemantics:
    def _make_pair(self, consume_now: bool):
        """producer pulses CC_x every cycle; consumer waits then runs."""
        producer = FSM(
            name="prod",
            states=("P",),
            initial="P",
            inputs=(),
            outputs=("CC_x",),
            transitions=(make_transition("P", "P", {}, ("CC_x",)),),
        )
        consumer = FSM(
            name="cons",
            states=("W", "E"),
            initial="W",
            inputs=("CC_x",),
            outputs=(),
            transitions=(
                make_transition(
                    "W", "E", {"CC_x": True}, starts=("j",), queries="j"
                ),
                make_transition("W", "W", {"CC_x": False}, queries="j"),
                make_transition("E", "E", {}),
            ),
        )
        return ControllerSystem(
            controllers={"u1": producer, "u2": consumer},
            consumes={("u2", "j"): ("x",)},
        )

    def test_pulse_with_simultaneous_consume_survives(self):
        system = self._make_pair(consume_now=True)
        config = system.initial_config()
        step1 = system.step(config, {})
        # Consumer consumed the pulse directly and started j; a *new*
        # pulse arrives every cycle, so the flag latches afterwards.
        assert "j" in step1.starts
        step2 = system.step(step1.config, {})
        assert ("u2", "j", "x") in step2.config.flags

    def test_overrun_reported(self):
        system = self._make_pair(consume_now=False)
        config = system.initial_config()
        step1 = system.step(config, {})  # consume + repulse
        step2 = system.step(step1.config, {})  # flag set, pulse again
        step3 = system.step(step2.config, {})
        assert step3.overruns == {("u2", "j", "x")}


def test_system_from_bound_wiring(fig3_result):
    controllers = derive_all_unit_controllers(fig3_result.bound)
    system = system_from_bound(fig3_result.bound, controllers)
    bound = fig3_result.bound
    for unit in bound.used_units():
        for op in bound.ops_on_unit(unit.name):
            preds = bound.cross_unit_predecessors(op)
            if preds:
                assert system._consumes[(unit.name, op)] == preds


def test_single_fsm_system(fig2_result):
    system = single_fsm_system(fig2_result.cent_sync_fsm)
    assert system.keys == ("central",)
    assert system.all_ops() == set(fig2_result.dfg.op_names())


# ----------------------------------------------------------------------
# The interned transition table behind ``ControllerSystem.transition``.
# ----------------------------------------------------------------------
def _glitch_leaves_table_alone(system, config, values, rng):
    """Run one pulse-glitch cycle through a fault wrapper of ``system``."""
    emitted = [op for op, _ in system.transition(config, values).emitters]
    producers = sorted(system.all_ops())
    injectors = [
        SpuriousPulseFault(producer_op=rng.choice(producers), cycle=0)
    ]
    if emitted:
        injectors.append(
            DroppedPulseFault(producer_op=rng.choice(emitted), occurrence=1)
        )
    size = len(system._table)
    inject(system, *injectors).transition(config, values)
    assert len(system._table) == size


def check_table_against_fresh_step(result, style, seed, walks=6, cycles=40):
    """Random CSG walks: every table-served step equals the reference step.

    The reference (``tests/reference_step.py``) recomputes each step from
    the FSMs with dicts and sets, sharing no code with the kernel behind
    ``step``.  Every walk restarts at the initial configuration, so later
    walks replay keys earlier walks stored.  Every seventh cycle also
    runs a pulse glitch, which must leave the table as it was, and then
    re-reads the same key fault-free.  An unpickled copy, as a pool
    worker gets it, must step and serve the table exactly like the
    original.
    """
    system = result.system(style)
    cold = pickle.dumps(system)
    copy = pickle.loads(cold)
    rng = random.Random(seed)
    units = sorted(
        unit_of_completion(s) for s in system.unit_completion_inputs()
    )
    # a unit no controller reads must not split table keys
    units.append("not-a-unit")
    for _ in range(walks):
        config = system.initial_config()
        for cycle in range(cycles):
            values = {unit: rng.random() < 0.5 for unit in units}
            step = system.transition(config, values)
            assert step == reference_step(system, config, values)
            assert step == copy.step(config, values)
            assert step == copy.transition(config, values)
            if cycle % 7 == 6:
                _glitch_leaves_table_alone(system, config, values, rng)
                again = system.transition(config, values)
                assert again == reference_step(system, config, values)
            config = step.config
    assert system._table
    assert pickle.dumps(system) == cold
    assert pickle.loads(pickle.dumps(system))._table == {}


STYLES = ("dist", "cent-sync")


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("name", core_benchmark_names())
def test_table_matches_fresh_step_on_core_designs(name, style):
    check_table_against_fresh_step(
        synthesize_entry(benchmark(name)), style, seed=name
    )


generated_names = st.builds(
    lambda ops, depth, fanout, mix, pressure, seed: (
        f"gen:ops={ops},depth={min(depth, ops)},fanout={fanout},"
        f"mix={mix},pressure={pressure},seed={seed}"
    ),
    st.integers(4, 24),
    st.integers(2, 8),
    st.integers(1, 4),
    st.sampled_from(("2-2-1", "1-1-1", "3-1-1", "1-2-2")),
    st.integers(2, 5),
    st.integers(0, 999),
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(generated_names, st.sampled_from(STYLES), st.integers(0, 2**16))
def test_table_matches_fresh_step_on_generated_designs(name, style, seed):
    check_table_against_fresh_step(
        synthesize_entry(benchmark(name)), style, seed=seed, walks=3
    )


def test_table_shares_configs_and_sets(fig3_result):
    """Equal values across table entries are one object."""
    system = fig3_result.distributed_system()
    config = system.initial_config()
    for cycle in range(30):
        values = {"TM1": cycle % 3 == 0, "TM2": cycle % 2 == 0}
        config = system.transition(config, values).config
    entries = list(system._table.values())
    for field in ("config", "outputs", "starts", "completes", "emitters"):
        by_value = {}
        for entry in entries:
            value = getattr(entry, field)
            assert by_value.setdefault(value, value) is value
    for entry in entries:
        assert entry.config is system._shared[entry.config]


def test_step_reports_emitters(fig3_result):
    """``emitters`` names the controller driving each pulsed CC net."""
    system = fig3_result.distributed_system()
    config = system.initial_config()
    seen = False
    for _ in range(12):
        step = system.step(config, {"TM1": True, "TM2": True})
        ops = [op for op, _ in step.emitters]
        assert ops == sorted(ops)
        for op, keys in step.emitters:
            assert f"CC_{op}" in step.outputs
            assert len(keys) == 1
            assert f"CC_{op}" in system.fsm(keys[0]).outputs
            seen = True
        config = step.config
    assert seen
