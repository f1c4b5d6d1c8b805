"""Communicating controller FSMs with completion-signal latches.

The distributed control unit is a *set* of synchronous FSMs exchanging
completion pulses (paper Fig. 7).  This module gives that set an exact
cycle semantics:

* Every controller steps once per clock.
* A controller's ``CC_*`` inputs see the corresponding producer's pulse in
  the cycle it is emitted *or* the latched arrival flag afterwards; a flag
  clears when the consumer starts the operation that waited on it (token
  semantics, see DESIGN.md §2 "completion-signal latching").
* ``C_<unit>`` inputs are external per cycle (they come from the CSGs of
  the telescopic units; the simulator derives them from a completion
  model, the product-FSM builder treats them as free inputs).

The step function is *pure* over an immutable :class:`SystemConfig`, so the
same code drives the cycle-accurate simulator and the exhaustive product
construction of the centralized CENT-FSM — guaranteeing by construction
the paper's claim that CENT-FSM behaves exactly like the distributed unit.

A structural property makes one-pass pulse resolution sound: a controller's
*outputs* never depend on its ``CC_*`` inputs (only the chosen target state
does).  Algorithm 1 produces only such FSMs; the step function verifies the
property at run time and fails loudly otherwise.

Purity also makes every fault-free step a function of the configuration and
the ``C_<unit>`` values the controllers read, so
:meth:`ControllerSystem.transition` serves repeated steps from one interned
table.  Callers that replay many trials of one design (the simulator, fault
campaigns) read through it; callers that visit each key once (the model
checker, the CENT product builder, the batch engine's memo) call
:meth:`ControllerSystem.step` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Mapping
from typing import Any

from ..binding.binder import BoundDataflowGraph
from ..errors import SimulationError
from ..fsm.model import FSM
from ..fsm.signals import (
    is_op_completion,
    is_unit_completion,
    op_completion,
    op_of_completion,
    unit_of_completion,
)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable snapshot of all controller states and arrival flags.

    Flags are kept per dependence *edge* — (controller key, consumer op,
    producer op) — because one producer may feed several operations on the
    same unit and each waits on its own token (a shared per-producer latch
    would let the first consumer starve the second).
    """

    states: tuple[str, ...]
    flags: frozenset[tuple[str, str, str]]


@dataclass(frozen=True)
class SystemStep:
    """Result of advancing the controller system by one clock cycle.

    ``overruns`` lists (controller, consumer op, producer op) edges whose
    1-bit arrival latch received a second completion pulse before the first
    was consumed — impossible within one dataflow iteration, but observable
    under overlapped iterations, where it marks the point a real design
    would need deeper token buffering.

    ``emitters`` pairs every ``CC`` net the controllers drive this cycle
    with the keys of the controllers driving it, in op order (pass 1 of
    :meth:`ControllerSystem.step`, before any injected glitch).  A healthy
    network never has two emitters for one operation in the same cycle,
    which is exactly what the model checker's MC-RACE rule looks for.
    """

    config: SystemConfig
    outputs: frozenset[str]
    starts: frozenset[str]
    completes: frozenset[str]
    overruns: frozenset[tuple[str, str, str]] = frozenset()
    emitters: tuple[tuple[str, tuple[str, ...]], ...] = ()


class ControllerSystem:
    """A fixed set of controller FSMs plus the completion-latch wiring.

    ``consumes`` maps ``(controller key, started op)`` to the producer
    operations whose arrival flags that start consumes — i.e. the op's
    cross-unit direct predecessors.  Use :func:`system_from_bound` to build
    it from a bound graph.

    The system owns one table of fault-free transitions, filled by
    :meth:`transition`.  It lives as long as the system object, so reuse
    the object to reuse the table; pickling (e.g. shipping the system to a
    pool worker) drops it.
    """

    def __init__(
        self,
        controllers: Mapping[str, FSM],
        consumes: Mapping[tuple[str, str], tuple[str, ...]],
    ) -> None:
        if not controllers:
            raise SimulationError("controller system needs >= 1 controller")
        self._keys = tuple(controllers)
        self._fsms = dict(controllers)
        self._consumes = dict(consumes)
        self._cc_inputs: dict[str, tuple[str, ...]] = {}
        self._ct_inputs: dict[str, tuple[str, ...]] = {}
        for key, fsm in self._fsms.items():
            self._cc_inputs[key] = tuple(
                op_of_completion(s) for s in fsm.inputs if is_op_completion(s)
            )
            self._ct_inputs[key] = tuple(
                s for s in fsm.inputs if is_unit_completion(s)
            )
        # Dependence edges per controller: producer -> waiting consumer ops.
        self._edges: dict[str, dict[str, tuple[str, ...]]] = {
            key: {} for key in self._keys
        }
        for (key, consumer), producers in self._consumes.items():
            if key not in self._fsms:
                raise SimulationError(f"consumes references unknown {key!r}")
            for producer in producers:
                waiting = self._edges[key].setdefault(producer, ())
                self._edges[key][producer] = waiting + (consumer,)
        # Per-state query op: which consumer's tokens a state's CC guards
        # examine.  Must be unique per state (Algorithm 1 guarantees it).
        self._state_query: dict[str, dict[str, "str | None"]] = {}
        for key, fsm in self._fsms.items():
            per_state: dict[str, "str | None"] = {}
            for state in fsm.states:
                queries = set()
                for t in fsm.transitions_from(state):
                    if any(is_op_completion(n) for n, _ in t.guard):
                        if t.queries is None:
                            raise SimulationError(
                                f"controller {key!r}: transition {t} guards "
                                f"on completion signals without a query op"
                            )
                        queries.add(t.queries)
                if len(queries) > 1:
                    raise SimulationError(
                        f"controller {key!r}: state {state!r} queries "
                        f"tokens of several ops {sorted(queries)}"
                    )
                per_state[state] = next(iter(queries), None)
            self._state_query[key] = per_state
        ops: set[str] = set()
        initial_starts: set[str] = set()
        for fsm in self._fsms.values():
            initial_starts |= fsm.initial_starts
            for t in fsm.transitions:
                ops |= t.starts | t.completes
        self._initial_starts = frozenset(initial_starts)
        self._all_ops = frozenset(ops | initial_starts)
        # the units whose C_<unit> value some controller reads: with the
        # configuration, everything a fault-free step depends on
        self._read_units = tuple(
            unit_of_completion(s) for s in self.unit_completion_inputs()
        )
        self._clear_table()

    def _clear_table(self) -> None:
        self._table: dict[tuple, SystemStep] = {}
        # canonical instance of every config, frozenset and tuple the
        # table holds, so equal values across entries are one object
        self._shared: dict[Hashable, Any] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_table"], state["_shared"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._clear_table()

    # -- introspection -----------------------------------------------------
    @property
    def keys(self) -> tuple[str, ...]:
        """Controller keys (usually unit names), stable order."""
        return self._keys

    def fsm(self, key: str) -> FSM:
        """The FSM of one controller."""
        return self._fsms[key]

    def unit_completion_inputs(self) -> tuple[str, ...]:
        """All distinct ``C_<unit>`` signals any controller references."""
        seen: dict[str, None] = {}
        for key in self._keys:
            for signal in self._ct_inputs[key]:
                seen.setdefault(signal, None)
        return tuple(seen)

    def dependence_edges(self) -> tuple[tuple[str, str, str], ...]:
        """All (controller, consumer op, producer op) arrival-latch edges.

        One entry per 1-bit completion-arrival latch of the distributed
        unit — the exact set of places a handshake fault can strike.  Empty
        for centralized (single-FSM) systems, which have no inter-controller
        nets.
        """
        edges: list[tuple[str, str, str]] = []
        for key in self._keys:
            for producer, consumers in sorted(self._edges[key].items()):
                for consumer in consumers:
                    edges.append((key, consumer, producer))
        return tuple(edges)

    def all_ops(self) -> frozenset[str]:
        """Every operation some controller starts or completes."""
        return self._all_ops

    # -- configuration -------------------------------------------------------
    def initial_config(self) -> SystemConfig:
        """All controllers in their initial states, no flags latched."""
        return SystemConfig(
            states=tuple(self._fsms[k].initial for k in self._keys),
            flags=frozenset(),
        )

    def initial_starts(self) -> frozenset[str]:
        """Operations executing during cycle 0."""
        return self._initial_starts

    # -- the cycle ----------------------------------------------------------
    def step(
        self,
        config: SystemConfig,
        unit_completions: Mapping[str, bool],
        *,
        suppress_pulses: frozenset[str] = frozenset(),
        inject_pulses: frozenset[str] = frozenset(),
    ) -> SystemStep:
        """Advance every controller by one clock edge.

        ``unit_completions`` maps unit names to their CSG value during the
        current cycle (missing units read as 0, which is only legal when
        the corresponding input is not referenced this cycle — enforced by
        the FSM semantics being insensitive to unreferenced inputs).

        ``suppress_pulses`` / ``inject_pulses`` model glitches on the
        inter-controller completion nets: a suppressed producer's ``CC``
        pulse is emitted by its FSM but reaches no consumer and no latch
        this cycle; an injected producer pulses spuriously.  Both default
        to empty (the fault-free wire); :mod:`repro.faults` drives them.
        The step function stays pure — no internal state is mutated.
        """
        flags = config.flags
        # Pass 1: outputs (hence CC pulses) with flag-only CC inputs.
        emitters: dict[str, tuple[str, ...]] = {}
        pass1_transitions: dict = {}
        for key, state in zip(self._keys, config.states):
            inputs = self._inputs_for(
                key, state, flags, frozenset(), unit_completions
            )
            transition = self._fsms[key].step(state, inputs)
            pass1_transitions[key] = transition
            for signal in transition.outputs:
                if is_op_completion(signal):
                    op = op_of_completion(signal)
                    emitters[op] = emitters.get(op, ()) + (key,)
        pulses = set(emitters)
        pulses -= suppress_pulses
        pulses |= inject_pulses
        # Pass 2: state choice with pulse-or-flag CC inputs.  A state
        # whose guards reference no completion signal (query op is None)
        # matches the same transition under any CC valuation, so pass 1's
        # answer is reused — most controllers spend most cycles in such
        # states (counting down C_<unit>), making this the common case.
        next_states: list[str] = []
        outputs: set[str] = set()
        starts: set[str] = set()
        completes: set[str] = set()
        consumed: set[tuple[str, str, str]] = set()
        pulse_set = frozenset(pulses)
        for key, state in zip(self._keys, config.states):
            if self._state_query[key].get(state) is None:
                transition = pass1_transitions[key]
            else:
                inputs = self._inputs_for(
                    key, state, flags, pulse_set, unit_completions
                )
                transition = self._fsms[key].step(state, inputs)
            if transition.outputs != pass1_transitions[key].outputs:
                raise SimulationError(
                    f"controller {key!r}: outputs depend on completion "
                    f"inputs (state {state!r}); the one-pass pulse "
                    f"resolution is unsound for this FSM"
                )
            next_states.append(transition.target)
            outputs |= transition.outputs
            starts |= transition.starts
            completes |= transition.completes
            for op in transition.starts:
                for producer in self._consumes.get((key, op), ()):
                    consumed.add((key, op, producer))
        # Latch update per dependence edge: a consumption eats exactly one
        # token; a pulse that coincides with a consumption of the
        # previously latched token therefore survives, and a pulse hitting
        # an unconsumed latched token is a (reported) overrun.
        new_flags: set[tuple[str, str, str]] = set()
        overruns: set[tuple[str, str, str]] = set()
        for key in self._keys:
            for producer, consumers in self._edges[key].items():
                pulsed = producer in pulse_set
                for consumer in consumers:
                    edge = (key, consumer, producer)
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

    def transition(
        self, config: SystemConfig, unit_completions: Mapping[str, bool]
    ) -> SystemStep:
        """The fault-free :meth:`step`, served from the interned table.

        The table is keyed on ``config`` plus the values of the
        ``C_<unit>`` inputs the controllers read, which is everything a
        fault-free step depends on.  A miss computes through :meth:`step`
        with every check intact (a step that raises is not stored), and
        the stored step shares its configuration, sets and tuples with
        earlier entries.  Pulse glitches are not served here: call
        :meth:`step` with ``suppress_pulses``/``inject_pulses``.
        """
        key = (
            config,
            tuple(map(bool, map(unit_completions.get, self._read_units))),
        )
        found = self._table.get(key)
        if found is None:
            found = self._table[key] = self._share(
                self.step(config, unit_completions)
            )
        return found

    def _share(self, step: SystemStep) -> SystemStep:
        """``step`` rebuilt from the table's canonical instances."""
        share = self._shared.setdefault
        config = self._shared.get(step.config)
        if config is None:
            states, flags = step.config.states, step.config.flags
            config = SystemConfig(
                states=share(states, states), flags=share(flags, flags)
            )
            self._shared[config] = config
        return SystemStep(
            config=config,
            outputs=share(step.outputs, step.outputs),
            starts=share(step.starts, step.starts),
            completes=share(step.completes, step.completes),
            overruns=share(step.overruns, step.overruns),
            emitters=share(step.emitters, step.emitters),
        )

    def _inputs_for(
        self,
        key: str,
        state: str,
        flags: frozenset[tuple[str, str, str]],
        pulses: frozenset[str],
        unit_completions: Mapping[str, bool],
    ) -> dict[str, bool]:
        inputs: dict[str, bool] = {}
        for signal in self._ct_inputs[key]:
            inputs[signal] = bool(
                unit_completions.get(unit_of_completion(signal), False)
            )
        query = self._state_query[key].get(state)
        for producer in self._cc_inputs[key]:
            latched = (
                query is not None
                and (key, query, producer) in flags
            )
            inputs[op_completion(producer)] = (
                latched or producer in pulses
            )
        return inputs


def system_from_bound(
    bound: BoundDataflowGraph, controllers: Mapping[str, FSM]
) -> ControllerSystem:
    """Build the consumption wiring for per-unit controllers.

    A controller starting operation ``o`` consumes the arrival flags of
    ``o``'s cross-unit direct predecessors.
    """
    consumes: dict[tuple[str, str], tuple[str, ...]] = {}
    for key in controllers:
        for op in bound.ops_on_unit(key):
            preds = bound.cross_unit_predecessors(op)
            if preds:
                consumes[(key, op)] = preds
    return ControllerSystem(controllers=controllers, consumes=consumes)


def single_fsm_system(fsm: FSM, key: str = "central") -> ControllerSystem:
    """Wrap a centralized FSM (no CC wiring) as a controller system."""
    return ControllerSystem(controllers={key: fsm}, consumes={})
