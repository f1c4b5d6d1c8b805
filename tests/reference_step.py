"""A reference controller-network step, written from the FSMs alone.

:func:`reference_step` is the per-controller stepping body that
``ControllerSystem.step`` ran before it moved onto packed words: build
each controller's input valuation as a dict, call ``FSM.step``, and
update the arrival latches as sets.  It reads only the system's
``keys``, ``fsm()`` and ``dependence_edges()`` and the FSMs'
transitions (their ``queries`` included), and shares no code with the
kernel, so tests can hold ``step`` and the batch memo against it.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import SimulationError
from repro.fsm.signals import (
    is_op_completion,
    is_unit_completion,
    op_of_completion,
    unit_of_completion,
)
from repro.sim.controllers import SystemConfig, SystemStep


def _state_query(fsm) -> dict:
    """Per state, the op whose tokens its ``CC`` guards examine."""
    queries: dict = {}
    for t in fsm.transitions:
        if any(is_op_completion(n) for n, _ in t.guard):
            queries[t.source] = t.queries
    return queries


def _inputs_for(key, fsm, query, flags, pulses, unit_completions) -> dict:
    inputs = {
        signal: bool(unit_completions.get(unit_of_completion(signal), False))
        for signal in fsm.inputs
        if is_unit_completion(signal)
    }
    for signal in fsm.inputs:
        if is_op_completion(signal):
            producer = op_of_completion(signal)
            edge = None if query is None else (key, query, producer)
            inputs[signal] = edge in flags or producer in pulses
    return inputs


def reference_step(
    system,
    config: SystemConfig,
    unit_completions: Mapping[str, bool],
    *,
    suppress_pulses: frozenset = frozenset(),
    inject_pulses: frozenset = frozenset(),
) -> SystemStep:
    """The :class:`SystemStep` of one clock edge, computed the slow way."""
    flags = config.flags
    edges = system.dependence_edges()
    # Pass 1: outputs (hence CC pulses) with flag-only CC inputs.
    emitters: dict[str, tuple[str, ...]] = {}
    queries = []
    pass1 = []
    for key, state in zip(system.keys, config.states):
        fsm = system.fsm(key)
        query = _state_query(fsm).get(state)
        inputs = _inputs_for(
            key, fsm, query, flags, frozenset(), unit_completions
        )
        transition = fsm.step(state, inputs)
        queries.append(query)
        pass1.append(transition)
        for signal in transition.outputs:
            if is_op_completion(signal):
                op = op_of_completion(signal)
                emitters[op] = emitters.get(op, ()) + (key,)
    pulses = (set(emitters) - suppress_pulses) | inject_pulses
    # Pass 2: state choice with pulse-or-flag CC inputs; a state that
    # queries no tokens keeps pass 1's transition.
    next_states = []
    outputs: set = set()
    starts: set = set()
    completes: set = set()
    consumed: set = set()
    pulse_set = frozenset(pulses)
    for key, state, query, first in zip(
        system.keys, config.states, queries, pass1
    ):
        fsm = system.fsm(key)
        if query is None:
            transition = first
        else:
            inputs = _inputs_for(
                key, fsm, query, flags, pulse_set, unit_completions
            )
            transition = fsm.step(state, inputs)
            if transition.outputs != first.outputs:
                raise SimulationError(
                    f"controller {key!r}: outputs depend on completion "
                    f"inputs (state {state!r}); the one-pass pulse "
                    f"resolution is unsound for this FSM"
                )
        next_states.append(transition.target)
        outputs |= transition.outputs
        starts |= transition.starts
        completes |= transition.completes
        consumed.update(
            edge
            for edge in edges
            if edge[0] == key and edge[1] in transition.starts
        )
    # Latch update per dependence edge.
    new_flags = set()
    overruns = set()
    for edge in edges:
        pulsed = edge[2] in pulse_set
        had = edge in flags
        if edge in consumed:
            remains = had and pulsed
        else:
            remains = had or pulsed
            if had and pulsed:
                overruns.add(edge)
        if remains:
            new_flags.add(edge)
    return SystemStep(
        config=SystemConfig(
            states=tuple(next_states), flags=frozenset(new_flags)
        ),
        outputs=frozenset(outputs),
        starts=frozenset(starts),
        completes=frozenset(completes),
        overruns=frozenset(overruns),
        emitters=tuple(sorted(emitters.items())),
    )
