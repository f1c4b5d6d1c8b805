"""FSM optimizations: reachability pruning and signal pruning.

The distributed integrator (paper Fig. 7) removes completion signals no
other controller listens to ("C_CO(0) is removed since any other
controllers do not receive it"); :func:`prune_outputs` implements that as a
generic output-signal restriction.  :func:`remove_unreachable_states` keeps
generated FSMs tight after transformations.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import FSMError
from .model import FSM, Transition


def remove_unreachable_states(fsm: FSM) -> FSM:
    """Drop states (and their transitions) unreachable from the initial."""
    reachable = {fsm.initial}
    frontier = [fsm.initial]
    while frontier:
        state = frontier.pop()
        for t in fsm.transitions_from(state):
            if t.target not in reachable:
                reachable.add(t.target)
                frontier.append(t.target)
    if reachable == set(fsm.states):
        return fsm
    states = tuple(s for s in fsm.states if s in reachable)
    transitions = tuple(
        t for t in fsm.transitions if t.source in reachable
    )
    referenced_inputs = {
        name for t in transitions for name, _ in t.guard
    }
    referenced_outputs = set().union(
        *(t.outputs for t in transitions)
    ) if transitions else set()
    pruned = FSM(
        name=fsm.name,
        states=states,
        initial=fsm.initial,
        inputs=tuple(i for i in fsm.inputs if i in referenced_inputs),
        outputs=tuple(o for o in fsm.outputs if o in referenced_outputs),
        transitions=transitions,
        initial_starts=fsm.initial_starts,
    )
    pruned.validate()
    return pruned


def prune_outputs(fsm: FSM, keep: Iterable[str]) -> FSM:
    """Restrict the FSM's outputs to ``keep`` (Fig. 7 signal optimization).

    Transition metadata (``starts``/``completes``) is untouched: pruning a
    wire changes the synthesized interface, never the behaviour.
    """
    keep_set = set(keep)
    unknown = keep_set - set(fsm.outputs)
    if unknown:
        raise FSMError(f"cannot keep undeclared outputs {sorted(unknown)}")
    transitions = tuple(
        Transition(
            source=t.source,
            target=t.target,
            guard=t.guard,
            outputs=frozenset(t.outputs & keep_set),
            starts=t.starts,
            completes=t.completes,
            queries=t.queries,
        )
        for t in fsm.transitions
    )
    pruned = FSM(
        name=fsm.name,
        states=fsm.states,
        initial=fsm.initial,
        inputs=fsm.inputs,
        outputs=tuple(o for o in fsm.outputs if o in keep_set),
        transitions=transitions,
        initial_starts=fsm.initial_starts,
    )
    pruned.validate()
    return pruned
