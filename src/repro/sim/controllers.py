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
        # Dependence edges per controller: producer -> waiting consumer ops.
        edges: dict[str, dict[str, tuple[str, ...]]] = {
            key: {} for key in self._keys
        }
        for (key, consumer), producers in self._consumes.items():
            if key not in self._fsms:
                raise SimulationError(f"consumes references unknown {key!r}")
            for producer in producers:
                waiting = edges[key].setdefault(producer, ())
                edges[key][producer] = waiting + (consumer,)
        self._dependence_edges = tuple(
            (key, consumer, producer)
            for key in self._keys
            for producer, consumers in sorted(edges[key].items())
            for consumer in consumers
        )
        # the latch edges a start consumes, per controller and started op
        self._consumed_edges: dict[str, dict[str, tuple]] = {
            key: {} for key in self._keys
        }
        for edge in self._dependence_edges:
            key, consumer, _ = edge
            per_op = self._consumed_edges[key]
            per_op[consumer] = per_op.get(consumer, ()) + (edge,)
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
        # The signal names and edges ``step`` reads, built once here:
        # per controller its (C_<unit> input, unit) pairs and, per query
        # op, one (CC_<producer> input, producer, latch edge) probe per
        # producer, the edge None when no op is queried.  Plain values,
        # so a pickled copy (a pool worker's) steps like the original.
        self._ct_pairs: dict[str, tuple[tuple[str, str], ...]] = {}
        self._cc_probes: dict[str, dict["str | None", tuple]] = {}
        for key, fsm in self._fsms.items():
            self._ct_pairs[key] = tuple(
                (s, unit_of_completion(s))
                for s in fsm.inputs
                if is_unit_completion(s)
            )
            cc_inputs = tuple(
                (s, op_of_completion(s))
                for s in fsm.inputs
                if is_op_completion(s)
            )
            queried = {
                q for q in self._state_query[key].values() if q is not None
            }
            self._cc_probes[key] = {
                query: tuple(
                    (s, p, None if query is None else (key, query, p))
                    for s, p in cc_inputs
                )
                for query in (None, *sorted(queried))
            }
        # the op every declared CC output pulses
        self._emitted_op = {
            s: op_of_completion(s)
            for fsm in self._fsms.values()
            for s in fsm.outputs
            if is_op_completion(s)
        }
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
            for signal, _ in self._ct_pairs[key]:
                seen.setdefault(signal, None)
        return tuple(seen)

    def dependence_edges(self) -> tuple[tuple[str, str, str], ...]:
        """All (controller, consumer op, producer op) arrival-latch edges.

        One entry per 1-bit completion-arrival latch of the distributed
        unit — the exact set of places a handshake fault can strike.  Empty
        for centralized (single-FSM) systems, which have no inter-controller
        nets.
        """
        return self._dependence_edges

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
        queries: list["str | None"] = []
        pass1_transitions: list = []
        for key, state in zip(self._keys, config.states):
            query = self._state_query[key].get(state)
            inputs = self._inputs_for(
                key, query, flags, frozenset(), unit_completions
            )
            transition = self._fsms[key].step(state, inputs)
            queries.append(query)
            pass1_transitions.append(transition)
            for signal in transition.outputs:
                op = self._emitted_op.get(signal)
                if op is not None:
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
        for key, state, query, first in zip(
            self._keys, config.states, queries, pass1_transitions
        ):
            if query is None:
                transition = first
            else:
                inputs = self._inputs_for(
                    key, query, flags, pulse_set, unit_completions
                )
                transition = self._fsms[key].step(state, inputs)
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
            consumes = self._consumed_edges[key]
            for op in transition.starts:
                consumed.update(consumes.get(op, ()))
        # Latch update per dependence edge: a consumption eats exactly one
        # token; a pulse that coincides with a consumption of the
        # previously latched token therefore survives, and a pulse hitting
        # an unconsumed latched token is a (reported) overrun.
        new_flags: set[tuple[str, str, str]] = set()
        overruns: set[tuple[str, str, str]] = set()
        for edge in self._dependence_edges:
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
        query: "str | None",
        flags: frozenset[tuple[str, str, str]],
        pulses: frozenset[str],
        unit_completions: Mapping[str, bool],
    ) -> dict[str, bool]:
        inputs = {
            signal: bool(unit_completions.get(unit, False))
            for signal, unit in self._ct_pairs[key]
        }
        for signal, producer, edge in self._cc_probes[key][query]:
            inputs[signal] = edge in flags or producer in pulses
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
