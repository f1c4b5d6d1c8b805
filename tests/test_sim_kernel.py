"""The packed stepping kernel against the reference stepper.

``ControllerSystem.step`` runs every controller through one kernel on
packed words, and the batch engine expands its memo rows through the
same kernel.  ``tests/reference_step.py`` keeps the per-controller dict
stepping body the kernel replaced; every test here holds the kernel to
it, field by field, on the core designs and on generated ones.
"""

import dataclasses
import functools
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.benchmarks.registry import benchmark, core_benchmark_names
from repro.errors import FSMError, SimulationError
from repro.experiments.common import synthesize_entry
from repro.fsm.model import FSM, make_transition
from repro.fsm.signals import (
    is_op_completion,
    op_of_completion,
    unit_of_completion,
)
from repro.sim.batch import BatchSimulator, numpy_available
from repro.sim.controllers import (
    ControllerSystem,
    SystemConfig,
    SystemStep,
    single_fsm_system,
)
from reference_step import reference_step
from test_sim_batch import MANY_UNITS

STYLES = ("dist", "cent-sync")

#: a latch edge no controller wires or reads
FOREIGN_EDGE = ("nobody", "no-op", "no-producer")


@functools.lru_cache(maxsize=None)
def synthesized(name):
    return synthesize_entry(benchmark(name))


def outcome(step, *args, **kwargs):
    """The step, or the type and message of the error it raised."""
    try:
        return step(*args, **kwargs)
    except (FSMError, SimulationError) as exc:
        return type(exc), str(exc)


def assert_same(got, expected):
    if isinstance(expected, SystemStep):
        assert isinstance(got, SystemStep), got
        for field in dataclasses.fields(SystemStep):
            assert getattr(got, field.name) == getattr(
                expected, field.name
            ), field.name
    else:
        assert got == expected


def latch_edges(system):
    """The dependence edges, then every edge a ``CC`` input may probe.

    A controller reads ``CC_p`` through the latch of the op its state
    queries, so it may probe ``(controller, query op, p)`` for any of its
    queried ops, including pairs no dependence edge wires.
    """
    edges = dict.fromkeys(system.dependence_edges())
    for key in system.keys:
        fsm = system.fsm(key)
        producers = [
            op_of_completion(s) for s in fsm.inputs if is_op_completion(s)
        ]
        queries = {t.queries for t in fsm.transitions} - {None}
        for query in sorted(queries):
            edges.update(dict.fromkeys((key, query, p) for p in producers))
    return list(edges)


def check_walks(system, rng, walks=4, cycles=30):
    """Random walks: ``step`` equals the reference on every cycle.

    The ``C_<unit>`` values are random and include a unit no controller
    reads.  Some cycles glitch random producers (suppressed or injected
    pulses), replace the latched flags with a random subset of the
    latch edges plus an edge no controller knows, or flip one controller
    to a random state of its FSM.
    """
    units = sorted(
        unit_of_completion(s) for s in system.unit_completion_inputs()
    )
    units.append("not-a-unit")
    ops = sorted(system.all_ops())
    edges = latch_edges(system)
    for _ in range(walks):
        config = system.initial_config()
        for _ in range(cycles):
            values = {unit: rng.random() < 0.5 for unit in units}
            glitches = {}
            if rng.random() < 0.3:
                glitches = {
                    "suppress_pulses": frozenset(
                        rng.sample(ops, rng.randint(0, 2))
                    ),
                    "inject_pulses": frozenset(
                        rng.sample(ops, rng.randint(0, 2))
                    ),
                }
            if rng.random() < 0.2:
                flags = rng.sample(edges, rng.randint(0, len(edges)))
                config = SystemConfig(
                    config.states, frozenset([*flags, FOREIGN_EDGE])
                )
            if rng.random() < 0.1:
                index = rng.randrange(len(system.keys))
                states = list(config.states)
                states[index] = rng.choice(
                    system.fsm(system.keys[index]).states
                )
                config = SystemConfig(tuple(states), config.flags)
            expected = outcome(
                reference_step, system, config, values, **glitches
            )
            assert_same(
                outcome(system.step, config, values, **glitches), expected
            )
            if isinstance(expected, SystemStep):
                config = expected.config
            else:
                config = system.initial_config()


def check_memo_rows(result, style, seed):
    """Every batch memo row equals the reference step of its key.

    Rows are visited in the order they were expanded, so each row's
    configuration is known (as a reference :class:`SystemConfig`)
    before it is read: the initial configuration, or the next
    configuration of an earlier row.
    """
    system = result.system(style)
    engine = BatchSimulator(system, result.bound)
    engine.statistics("markov:0.7,0.5", 300, seed)
    next_ids, keep, done, start, any_start = engine._tables()
    keys = sorted(
        (int(row), key)
        for key, row in enumerate(engine._rowtab.tolist())
        if row >= 0
    )
    assert [row for row, _ in keys] == list(range(engine.memo_size))
    configs = {engine.init_config: system.initial_config()}
    for row, key in keys:
        flags = key & ((1 << engine.U) - 1)
        values = {
            unit: bool(flags >> u & 1) for u, unit in enumerate(engine.units)
        }
        expected = reference_step(system, configs[key >> engine.U], values)
        assert configs.setdefault(
            int(next_ids[row]), expected.config
        ) == expected.config
        ops = range(engine.N)
        completed = {engine.ops[i] for i in ops if int(done[row]) >> i & 1}
        assert completed == expected.completes
        assert {engine.ops[i] for i in ops if start[row, i]} == (
            expected.starts
        )
        assert bool(any_start[row]) == bool(expected.starts)
        finishing = {engine.unit_arr[engine.opi[op]] for op in completed}
        assert keep[row].tolist() == [
            u not in finishing for u in range(engine.U)
        ]
    # one id per configuration
    assert len(set(configs.values())) == len(configs) == len(engine._configs)


needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="batch engine requires numpy"
)


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("name", [*core_benchmark_names(), MANY_UNITS])
def test_step_matches_reference_on_core_designs(name, style):
    check_walks(synthesized(name).system(style), random.Random(name))


@needs_numpy
@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("name", [*core_benchmark_names(), MANY_UNITS])
def test_memo_rows_match_reference_on_core_designs(name, style):
    check_memo_rows(synthesized(name), style, seed=3)


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
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(name=MANY_UNITS, style="dist", seed=0)
@example(name=MANY_UNITS, style="cent-sync", seed=0)
@given(generated_names, st.sampled_from(STYLES), st.integers(0, 2**16))
def test_kernel_matches_reference_on_generated_designs(name, style, seed):
    result = synthesize_entry(benchmark(name))
    check_walks(result.system(style), random.Random(seed), walks=3)
    if numpy_available() and len(result.system(style).all_ops()) <= 63:
        check_memo_rows(result, style, seed)


# ----------------------------------------------------------------------
# Error paths: the kernel stores no row for a step that raises, and the
# output-dependence check runs on every call.
# ----------------------------------------------------------------------
def _producer() -> FSM:
    return FSM(
        name="prod",
        states=("P",),
        initial="P",
        inputs=(),
        outputs=("CC_x",),
        transitions=(make_transition("P", "P", {}, ("CC_x",)),),
    )


def _consumer(*transitions) -> ControllerSystem:
    consumer = FSM(
        name="cons",
        states=("A", "B"),
        initial="A",
        inputs=("CC_x",),
        outputs=("OF_y",),
        transitions=(*transitions, make_transition("B", "B", {}, ())),
    )
    return ControllerSystem(
        controllers={"u1": _producer(), "u2": consumer},
        consumes={("u2", "j"): ("x",)},
    )


def assert_raises_twice(system, config, values, kind, match):
    expected = outcome(reference_step, system, config, values)
    assert expected[0] is kind and match in expected[1]
    for _ in range(2):
        assert outcome(system.step, config, values) == expected


def test_output_dependence_raises_on_every_call():
    """The system of ``test_output_independence_enforced``."""
    system = _consumer(
        make_transition("A", "B", {"CC_x": True}, ("OF_y",), queries="j"),
        make_transition("A", "A", {"CC_x": False}, (), queries="j"),
    )
    assert_raises_twice(
        system, system.initial_config(), {}, SimulationError,
        "outputs depend",
    )


def test_incomplete_guard_in_pass_two_raises_on_every_call():
    """No transition once the producer's pulse arrives (pass 2)."""
    system = _consumer(
        make_transition("A", "A", {"CC_x": False}, (), queries="j"),
    )
    assert_raises_twice(
        system, system.initial_config(), {}, FSMError, "no transition"
    )


def test_incomplete_guard_in_pass_one_raises_on_every_call():
    """No transition for a slow unit; the fast cycle still steps."""
    fsm = FSM(
        name="central",
        states=("A", "B"),
        initial="A",
        inputs=("C_T",),
        outputs=(),
        transitions=(
            make_transition("A", "B", {"C_T": True}, starts=("o",)),
            make_transition("B", "B", {}),
        ),
    )
    system = single_fsm_system(fsm)
    config = system.initial_config()
    assert_raises_twice(system, config, {"T": False}, FSMError, "from 'A'")
    step = system.step(config, {"T": True})
    assert step == reference_step(system, config, {"T": True})
    assert step.starts == {"o"}


def test_unread_edges_are_dropped(fig3_result):
    """A hand-built flag no controller reads steps like no flag at all."""
    system = fig3_result.distributed_system()
    config = system.initial_config()
    foreign = SystemConfig(config.states, frozenset([FOREIGN_EDGE]))
    step = system.step(foreign, {"TM1": True})
    assert step == reference_step(system, foreign, {"TM1": True})
    assert step == system.step(config, {"TM1": True})
    assert FOREIGN_EDGE not in step.config.flags


def test_flag_sets_are_interned(fig3_result):
    """Equal flag words unpack to one frozenset object."""
    system = fig3_result.distributed_system()
    seen = {}
    config = system.initial_config()
    for cycle in range(40):
        values = {"TM1": cycle % 3 == 0, "TM2": cycle % 2 == 0}
        config = system.step(config, values).config
        assert seen.setdefault(config.flags, config.flags) is config.flags
    assert len(seen) > 1
