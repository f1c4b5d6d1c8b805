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

One stepping kernel, :meth:`ControllerSystem._kernel`, runs the network
on packed words: the ``C_<unit>`` values, the latched flags, the pulses
and the op sets are integers whose bit positions the system fixes in its
constructor.  Each controller contributes one row per distinct valuation
of the bits it reads — its transition, the ops it pulses, the latches its
starts consume, the ops it starts and completes — filled on first use
through ``FSM.step`` and kept on the system, so a step is one dict lookup
per controller and a few integer operations for the latches.

Purity also makes every fault-free step a function of the configuration and
the ``C_<unit>`` values the controllers read, so
:meth:`ControllerSystem.transition` serves repeated steps from one interned
table.  Callers that replay many trials of one design (the simulator, fault
campaigns) read through it; the CENT product builder and the fault
wrapper's glitched re-steps call :meth:`ControllerSystem.step`, which
packs its arguments for the kernel and unpacks the result; the batch
engine's memo and the model checker call the kernel itself and keep the
words.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Iterable, Iterator, Mapping
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


#: the attributes a system fills as it steps; pickling drops them
_LAZY = (
    "_table", "_shared", "_rows", "_flag_sets", "_flag_words", "_op_sets"
)

# Fields of a kernel row, one controller's step from one input valuation:
# its transition, pulse word (the ops its CC outputs pulse), consumed-edge
# word (the latch edges its starts consume), started-op and completed-op
# bits, and the ops its CC outputs name.
_TRANSITION, _PULSES, _CONSUMED, _STARTED, _COMPLETED, _EMITTED = range(6)


class ControllerSystem:
    """A fixed set of controller FSMs plus the completion-latch wiring.

    ``consumes`` maps ``(controller key, started op)`` to the producer
    operations whose arrival flags that start consumes — i.e. the op's
    cross-unit direct predecessors.  Use :func:`system_from_bound` to build
    it from a bound graph.

    The system owns one table of fault-free transitions, filled by
    :meth:`transition`, and the kernel's per-controller rows and interned
    flag and op sets, filled by every step.  They live as long as the
    system object, so reuse the object to reuse them; pickling (e.g.
    shipping the system to a pool worker) drops them.
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
        self._pack_layout()
        self._clear_table()

    def _pack_layout(self) -> None:
        """Bit positions and masks of the packed words :meth:`_kernel` reads.

        One bit per ``C_<unit>`` value some controller reads, per latch
        edge (the dependence edges in the low bits, then every probe
        edge that is not one) and per op whose ``CC`` net a controller
        drives or reads; op-set words use ``sorted(all_ops())`` order.
        """
        self._unit_bit = {
            unit: 1 << i for i, unit in enumerate(self._read_units)
        }
        edges = dict.fromkeys(self._dependence_edges)
        for key in self._keys:
            for probes in self._cc_probes[key].values():
                edges.update(
                    (edge, None) for _, _, edge in probes if edge is not None
                )
        self._edges = tuple(edges)
        self._edge_bit = {edge: 1 << i for i, edge in enumerate(self._edges)}
        self._latch_mask = (1 << len(self._dependence_edges)) - 1
        producers = set(self._emitted_op.values())
        producers.update(p for _, _, p in self._dependence_edges)
        for key in self._keys:
            producers.update(p for _, p, _ in self._cc_probes[key][None])
        self._producer_bit = {
            op: 1 << i for i, op in enumerate(sorted(producers))
        }
        # per producer bit, the latch edges its pulse reaches
        self._pulse_edges = dict.fromkeys(self._producer_bit.values(), 0)
        for edge in self._dependence_edges:
            self._pulse_edges[self._producer_bit[edge[2]]] |= (
                self._edge_bit[edge]
            )
        self._op_names = tuple(sorted(self._all_ops))
        self._op_bit = {op: 1 << i for i, op in enumerate(self._op_names)}
        # the latch edges a start consumes, per controller and started op
        self._consumed_masks: dict[str, dict[str, int]] = {
            key: {} for key in self._keys
        }
        for edge in self._dependence_edges:
            key, consumer, _ = edge
            masks = self._consumed_masks[key]
            masks[consumer] = masks.get(consumer, 0) | self._edge_bit[edge]
        # per controller: its key, C mask, flag mask per queried state
        # (the probe edges of the state's query op) and pulse mask
        packed = []
        for key in self._keys:
            query_masks = {
                query: self._mask(self._edge_bit, (e for _, _, e in probes))
                for query, probes in self._cc_probes[key].items()
                if query is not None
            }
            packed.append(
                (
                    key,
                    self._mask(
                        self._unit_bit, (u for _, u in self._ct_pairs[key])
                    ),
                    {
                        state: query_masks[query]
                        for state, query in self._state_query[key].items()
                        if query is not None
                    },
                    self._mask(
                        self._producer_bit,
                        (p for _, p, _ in self._cc_probes[key][None]),
                    ),
                )
            )
        self._packed = tuple(packed)

    @staticmethod
    def _mask(bits: Mapping[Any, int], names: Iterable[Any]) -> int:
        mask = 0
        for name in names:
            mask |= bits[name]
        return mask

    def _clear_table(self) -> None:
        self._table: dict[tuple, SystemStep] = {}
        # canonical instance of every config, frozenset and tuple the
        # table holds, so equal values across entries are one object
        self._shared: dict[Hashable, Any] = {}
        # the kernel's rows, one dict per controller, the interned flag
        # set of each flag word (and the word of each flag set seen) and
        # the interned op set of each op word
        self._rows: tuple[dict[tuple, tuple], ...] = tuple(
            {} for _ in self._keys
        )
        self._flag_sets: dict[int, frozenset] = {0: frozenset()}
        self._flag_words: dict[frozenset, int] = {frozenset(): 0}
        self._op_sets: dict[int, frozenset[str]] = {0: frozenset()}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in _LAZY:
            del state[name]
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
        The step function stays pure: the result depends on the arguments
        alone (the kernel's rows only memoize controller transitions).

        This packs its arguments into words, runs :meth:`_kernel` and
        unpacks the result.
        """
        c_word = 0
        for unit, bit in self._unit_bit.items():
            if unit_completions.get(unit):
                c_word |= bit
        states, flags, overruns, started, completed, first, second = (
            self._kernel(
                config.states,
                c_word,
                self._flag_word(config.flags),
                self._producer_word(suppress_pulses),
                self._producer_word(inject_pulses),
            )
        )
        emitters: dict[str, tuple[str, ...]] = {}
        for key, row in zip(self._keys, first):
            for op in row[_EMITTED]:
                emitters[op] = emitters.get(op, ()) + (key,)
        return SystemStep(
            config=SystemConfig(states=states, flags=self._flag_set(flags)),
            outputs=frozenset().union(
                *[row[_TRANSITION].outputs for row in second]
            ),
            starts=self._op_set(started),
            completes=self._op_set(completed),
            overruns=frozenset(self._edges_of(overruns)),
            emitters=tuple(sorted(emitters.items())),
        )

    def _kernel(
        self,
        states: tuple[str, ...],
        c_word: int,
        flag_word: int,
        suppress: int = 0,
        inject: int = 0,
    ) -> tuple:
        """One clock edge of the whole network on packed words.

        ``c_word`` holds the ``C_<unit>`` values, ``flag_word`` the
        latched arrival flags and ``suppress``/``inject`` the glitched
        producers, in the bit positions of :meth:`_pack_layout`.

        Pass 1 looks up each controller's row with its ``CC`` inputs
        reading the latches only; the rows' pulse words, less
        ``suppress``, plus ``inject``, are the pulses of the cycle.  Pass
        2 re-reads a controller in a state whose guards query completion
        tokens, its ``CC`` inputs now reading pulse or latch; a state
        that queries nothing takes the same transition under any ``CC``
        valuation, so pass 1's row is reused.  Outputs are decided in
        pass 1 alone, which is sound only because they never depend on
        ``CC`` inputs: pass 2 checks that on every call.  The latch
        update then runs per dependence edge, as words: a consumption
        eats exactly one token, so a pulse that coincides with the
        consumption of the latched token survives, and a pulse hitting
        an unconsumed latched token is a (reported) overrun.

        Returns ``(next states, next flag word, overrun word, started-op
        bits, completed-op bits, pass-1 rows, pass-2 rows)``.  :meth:`step`
        unpacks them into a :class:`SystemStep`; the batch engine
        (:mod:`repro.sim.batch`) keeps the words as they are.
        """
        rows_of = self._rows
        first = []
        pulse = 0
        for (key, c_mask, flag_masks, _), rows, state in zip(
            self._packed, rows_of, states
        ):
            row_key = (
                state,
                c_word & c_mask,
                flag_word & flag_masks.get(state, 0),
                0,
            )
            row = rows.get(row_key)
            if row is None:
                row = self._fill(key, rows, row_key)
            pulse |= row[_PULSES]
            first.append(row)
        pulse = (pulse & ~suppress) | inject
        consumed = started = completed = 0
        second = []
        for (key, c_mask, flag_masks, p_mask), rows, state, row in zip(
            self._packed, rows_of, states, first
        ):
            flag_mask = flag_masks.get(state)
            if flag_mask is not None and pulse & p_mask:
                row_key = (
                    state,
                    c_word & c_mask,
                    flag_word & flag_mask,
                    pulse & p_mask,
                )
                outputs = row[_TRANSITION].outputs
                row = rows.get(row_key)
                if row is None:
                    row = self._fill(key, rows, row_key)
                if row[_TRANSITION].outputs != outputs:
                    raise SimulationError(
                        f"controller {key!r}: outputs depend on completion "
                        f"inputs (state {state!r}); the one-pass pulse "
                        f"resolution is unsound for this FSM"
                    )
            consumed |= row[_CONSUMED]
            started |= row[_STARTED]
            completed |= row[_COMPLETED]
            second.append(row)
        pulsed = 0
        bits = pulse
        while bits:
            low = bits & -bits
            pulsed |= self._pulse_edges[low]
            bits ^= low
        had = flag_word
        remains = (had & pulsed & consumed) | ((had | pulsed) & ~consumed)
        return (
            tuple([row[_TRANSITION].target for row in second]),
            remains & self._latch_mask,
            had & pulsed & ~consumed,
            started,
            completed,
            first,
            second,
        )

    def _fill(self, key: str, rows: dict, row_key: tuple) -> tuple:
        """Compute, store and return one controller's kernel row.

        ``row_key`` is ``(state, C bits, flag bits, pulse bits)`` under
        the controller's masks; the transition comes from ``FSM.step`` on
        the input valuation those bits spell.  A step that raises is not
        stored, so the same key raises again on the next call.
        """
        state, c_bits, flag_bits, pulse_bits = row_key
        query = self._state_query[key].get(state)
        probes = self._cc_probes[key][query]
        inputs = self._inputs_for(
            key,
            query,
            frozenset(
                edge
                for _, _, edge in probes
                if edge is not None and flag_bits & self._edge_bit[edge]
            ),
            frozenset(
                p for _, p, _ in probes if pulse_bits & self._producer_bit[p]
            ),
            {
                unit: bool(c_bits & self._unit_bit[unit])
                for _, unit in self._ct_pairs[key]
            },
        )
        transition = self._fsms[key].step(state, inputs)
        emitted = tuple(
            self._emitted_op[s]
            for s in sorted(transition.outputs)
            if s in self._emitted_op
        )
        consumes = self._consumed_masks[key]
        row = (
            transition,
            self._mask(self._producer_bit, emitted),
            self._mask(
                consumes, (o for o in transition.starts if o in consumes)
            ),
            self._mask(self._op_bit, transition.starts),
            self._mask(self._op_bit, transition.completes),
            emitted,
        )
        rows[row_key] = row
        return row

    # -- packing ---------------------------------------------------------
    def _flag_word(self, flags: frozenset) -> int:
        """The flag word of a flag set (edges outside the layout drop)."""
        word = self._flag_words.get(flags)
        if word is None:
            word = self._mask(
                self._edge_bit, (e for e in flags if e in self._edge_bit)
            )
            self._flag_words[flags] = word
        return word

    def _flag_set(self, word: int) -> frozenset:
        """The interned flag set of a flag word."""
        flags = self._flag_sets.get(word)
        if flags is None:
            flags = self._flag_sets[word] = frozenset(self._edges_of(word))
            self._flag_words.setdefault(flags, word)
        return flags

    def _edges_of(self, word: int) -> Iterator[tuple[str, str, str]]:
        while word:
            low = word & -word
            yield self._edges[low.bit_length() - 1]
            word ^= low

    def _producer_word(self, ops: frozenset[str]) -> int:
        """The pulse word of a producer set (ops nothing reads drop)."""
        if not ops:
            return 0
        return self._mask(
            self._producer_bit, (o for o in ops if o in self._producer_bit)
        )

    def _op_set(self, word: int) -> frozenset[str]:
        """The interned op set of an op word (``sorted(all_ops())`` bits)."""
        ops = self._op_sets.get(word)
        if ops is None:
            names = self._op_names
            ops = self._op_sets[word] = frozenset(
                names[i] for i in range(word.bit_length()) if word >> i & 1
            )
        return ops

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
