"""Explicit-state model checking of the composed controller network.

The lint families inspect one artifact at a time; this module explores
the *product* behavior: every per-unit controller FSM stepped together
with the CSG/CC net valuations and the completion-arrival latches, with
the telescopic completion signals treated as free nondeterministic
inputs.  Freedom is expressed at the only point the hardware has any —
the telescope level an operation completes at — so every explored
trajectory is realizable by the cycle-accurate simulator under a
:class:`~repro.resources.completion.LevelAssignmentCompletion`, and
every violation ships with a replayable
:class:`~repro.sim.stimulus.CounterexampleStimulus`.

Three rule families are proved per design:

* **MC-DEAD** — no reachable quiescent-but-incomplete state: from every
  reachable state some completion schedule still finishes the
  iteration (backward co-reachability over the explored graph, which
  also catches livelocks and wedged controllers).
* **MC-RACE** — no reachable cycle where two controllers assert the
  same ``CC`` net, and no completion pulse lands on an already-latched
  unconsumed arrival flag while both endpoints of the edge are still
  pending (first-delivery overrun).
* **MC-REF** — trace refinement against the CENT-SYNC specification:
  the centralized synchronized FSM fires operations in TAUBM step
  order, which linearizes exactly the execution graph (data edges plus
  schedule arcs); a distributed firing sequence is accepted iff it
  respects that partial order, completes each operation exactly when
  its unit's CSG reports done, and never double-books a unit.  The
  lockstep product is implicit: the acceptor's state (the completed-op
  set) is a component of every explored state.

Exploration covers one dataflow iteration: accepting states (all
operations completed once) are not expanded, and wrap-around restarts
of already-completed operations are followed at the fast level without
re-branching — the overlap behavior itself stays visible (latch
traffic, occupancy), while the state space stays bounded.

The explorer runs on packed words.  A state is a tuple of the
controller states, the latched-flag word, one sorted integer code per
busy unit's ``(unit, op, countdown)`` entry and the completed-op word,
so admitting a state hashes a few ints and one tuple of strings.  Each
expansion steps the network through exactly one call of the stepping
kernel (:meth:`ControllerSystem._kernel
<repro.sim.controllers.ControllerSystem._kernel>`), in the kernel's own
bit positions, and checks MC-RACE and MC-REF on the words it returns;
op and edge names are decoded only to word a finding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from ..errors import (
    FSMError,
    ModelCheckBudgetExceeded,
    SimulationError,
)
from ..sim.controllers import _EMITTED, _PULSES, ControllerSystem
from ..sim.stimulus import CounterexampleStimulus
from .diagnostics import Diagnostic, DiagnosticReport
from .rules import diag
from .target import LintTarget

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..api import SynthesisResult
    from ..pipeline.artifacts import ArtifactStore

#: default exploration budgets (states visited / BFS frontier size).
DEFAULT_MAX_STATES = 200_000
DEFAULT_MAX_FRONTIER = 100_000

_HINT = (
    "replay the attached counterexample stimulus in the simulator to "
    "observe the runtime failure"
)


@dataclass(frozen=True)
class ModelCheckResult:
    """Outcome of model-checking one design."""

    design: str
    states: int
    transitions: int
    accepting: int
    max_depth: int
    report: DiagnosticReport
    counterexamples: tuple[CounterexampleStimulus, ...]

    @property
    def clean(self) -> bool:
        return not self.report.diagnostics

    def counterexample_for(
        self, rule_id: str
    ) -> "CounterexampleStimulus | None":
        """The first (shortest) counterexample of one rule, if any."""
        for cex in self.counterexamples:
            if cex.rule_id == rule_id:
                return cex
        return None

    def render(self) -> str:
        """Human-readable summary plus the diagnostic listing."""
        head = (
            f"check {self.design}: {self.states} states / "
            f"{self.transitions} transitions / {self.accepting} "
            f"accepting / depth {self.max_depth}"
        )
        return head + "\n" + self.report.render()


class _Violation:
    """Internal accumulator entry: diagnostic fields + counterexample."""

    __slots__ = ("diagnostic", "cex")

    def __init__(
        self, diagnostic: Diagnostic, cex: CounterexampleStimulus
    ) -> None:
        self.diagnostic = diagnostic
        self.cex = cex


#: one explored state: controller states, flag word, entry codes, done word
_State = tuple[tuple[str, ...], int, tuple[int, ...], int]

#: a start's choices: per level, its entry code and the choice it records
_Options = tuple[tuple[int, tuple[str, int] | None], ...]


class _Explorer:
    """BFS over the level-choice-branching network semantics.

    A state is the tuple ``(controller states, flag word, entries, done
    word)``.  The flag word holds the latched arrival flags in the
    kernel's bit positions.  ``entries`` holds one sorted code per busy
    unit, ``(slot * n_ops + op) * L + left``: the unit's slot in sorted
    unit order, the bit of the operation it runs and the clamped
    countdown until its CSG reports done (``C = left <= 0``); ``L``
    exceeds every countdown, so code order is ``(unit, op, left)``
    order.  The done word holds the operations that completed at least
    once — the implicit CENT-SYNC acceptor state.  Op bit ``i`` is
    ``sorted(all_ops())[i]``, the kernel's own op order.
    """

    def __init__(
        self,
        target: LintTarget,
        max_states: int,
        max_frontier: int,
    ) -> None:
        self.target = target
        self.max_states = max_states
        self.max_frontier = max_frontier
        self.system: ControllerSystem = target.distributed.system()
        bound = target.bound
        self.ops = ops = tuple(sorted(self.system.all_ops()))
        n_ops = len(ops)
        bit = {op: 1 << i for i, op in enumerate(ops)}
        self.all_done = (1 << n_ops) - 1
        unit_of = {op: bound.unit_of(op) for op in ops}
        self.levels_of = {
            op: (
                tuple(range(unit.num_levels)) if unit.is_telescopic else (0,)
            )
            for op, unit in unit_of.items()
        }
        left_of = {
            (op, level): max(bound.duration_for_level(op, level) - 1, 0)
            if unit_of[op].is_telescopic
            else max(bound.duration_cycles(op, fast=True) - 1, 0)
            for op in ops
            for level in self.levels_of[op]
        }
        # The CENT-SYNC partial order: execution-graph predecessor masks.
        self.preds = [0] * n_ops
        for u, v in bound.execution_edges():
            if u in bit and v in bit:
                self.preds[ops.index(v)] |= bit[u]
        self.units = tuple(sorted({unit.name for unit in unit_of.values()}))
        slot_of = {unit: slot for slot, unit in enumerate(self.units)}
        self.op_slot = [slot_of[unit_of[op].name] for op in ops]
        self.L = L = max(left_of.values(), default=0) + 1
        self.span = n_ops * L
        # Per op, its entry code and recorded choice per start level (a
        # choice is recorded only where the level branches); a
        # wrap-around restart runs at level 0 and records nothing.
        self.start_options: list[_Options] = [
            tuple(
                (
                    (self.op_slot[i] * n_ops + i) * L + left_of[(op, level)],
                    (op, level) if len(self.levels_of[op]) > 1 else None,
                )
                for level in self.levels_of[op]
            )
            for i, op in enumerate(ops)
        ]
        self.restart: list[_Options] = [
            ((options[0][0], None),) for options in self.start_options
        ]
        # Per unit slot, the C bit the kernel reads (0: no controller
        # reads it); per latch-edge bit, the edge and its producer's and
        # consumer's op bits.
        self.c_bit = [
            self.system._unit_bit.get(unit, 0) for unit in self.units
        ]
        self.latch = [
            (edge, bit.get(edge[2], 0), bit.get(edge[1], 0))
            for edge in self.system._edges
        ]
        # BFS bookkeeping, indexed by state id (discovery order).
        self.index: dict[_State, int] = {}
        self.states: list[_State] = []
        self.parent: list[int] = []
        self.choices: list[tuple[tuple[str, int], ...]] = []
        self.depth: list[int] = []
        self.succs: list[list[int]] = []
        self.accepting: list[bool] = []
        self.wedged: dict[int, str] = {}
        self.transitions = 0
        # First (shortest) violation per (rule, location) key.
        self.found: dict[tuple[str, str], _Violation] = {}

    def _names(self, mask: int) -> list[str]:
        """The ops of an op word, in bit (name) order."""
        return [self.ops[i] for i in range(mask.bit_length()) if mask >> i & 1]

    # -- counterexample assembly ---------------------------------------
    def _levels_to(self, state_id: int) -> tuple[tuple[str, int], ...]:
        """The level assignment realizing the path to a state."""
        levels: dict[str, int] = {}
        node = state_id
        while node >= 0:
            for op, level in self.choices[node]:
                levels.setdefault(op, level)
            node = self.parent[node]
        for op in self.ops:
            if len(self.levels_of[op]) > 1:
                levels.setdefault(op, 0)
        return tuple(sorted(levels.items()))

    def _record(
        self,
        rule_id: str,
        location: str,
        message: str,
        state_id: int,
        expects: str,
    ) -> None:
        key = (rule_id, location)
        if key in self.found:
            return
        d = diag(rule_id, "network", location, message, hint=_HINT)
        cex = CounterexampleStimulus(
            design=self.target.name,
            rule_id=rule_id,
            expects=expects,
            levels=self._levels_to(state_id),
            depth=self.depth[state_id],
            description=message,
            # Deadlock replays run with the default monitors only: the
            # strict handshake monitor could preempt the watchdog with
            # an incidental overrun on the way into the stuck state.
            handshake=expects == "protocol",
        )
        self.found[key] = _Violation(d, cex)

    # -- state admission -------------------------------------------------
    def _admit(
        self,
        state: _State,
        parent: int,
        choices: tuple[tuple[str, int], ...],
        queue: "deque[int]",
    ) -> int:
        known = self.index.get(state)
        if known is not None:
            return known
        state_id = len(self.states)
        if state_id >= self.max_states:
            raise ModelCheckBudgetExceeded(
                f"model check of {self.target.name!r} exceeded the "
                f"state budget ({self.max_states} states); raise "
                f"--max-states or shrink the design",
                states=state_id,
                limit=self.max_states,
                reason="states",
            )
        self.index[state] = state_id
        self.states.append(state)
        self.parent.append(parent)
        self.choices.append(choices)
        self.depth.append(0 if parent < 0 else self.depth[parent] + 1)
        self.succs.append([])
        is_accepting = state[3] == self.all_done
        self.accepting.append(is_accepting)
        if not is_accepting:
            queue.append(state_id)
            if len(queue) > self.max_frontier:
                raise ModelCheckBudgetExceeded(
                    f"model check of {self.target.name!r} exceeded the "
                    f"frontier budget ({self.max_frontier} states); "
                    f"raise --max-frontier or shrink the design",
                    states=len(self.states),
                    frontier=len(queue),
                    limit=self.max_frontier,
                    reason="frontier",
                )
        return state_id

    # -- one-transition semantics ---------------------------------------
    def _expand(self, state_id: int, queue: "deque[int]") -> None:
        states, flags, entries, done = self.states[state_id]
        ops, units, op_slot = self.ops, self.units, self.op_slot
        L, n_ops = self.L, len(ops)
        executing = {code // self.span: code for code in entries}
        c_word = 0
        for slot, code in executing.items():
            if not code % L:
                c_word |= self.c_bit[slot]
        try:
            next_states, next_flags, overruns, started, completed, rows, _ = (
                self.system._kernel(states, c_word, flags)
            )
        except (FSMError, SimulationError) as exc:
            self.wedged[state_id] = str(exc)
            return
        next_depth = self.depth[state_id] + 1
        # MC-RACE (a): two controllers asserting one CC net.
        pulses = 0
        for row in rows:
            if pulses & row[_PULSES]:
                self._double_drivers(rows, state_id, next_depth)
                break
            pulses |= row[_PULSES]
        # Completions: retire executing entries, feed the acceptor.
        done_after = done
        while completed:
            low = completed & -completed
            completed ^= low
            i = low.bit_length() - 1
            slot = op_slot[i]
            code = executing.get(slot)
            if code is None or code // L != slot * n_ops + i:
                self._record(
                    "MC-REF",
                    f"op:{ops[i]}",
                    f"{ops[i]} completes but unit {units[slot]} is not "
                    f"executing it (depth {next_depth})",
                    state_id,
                    expects="protocol",
                )
                continue
            if code % L:
                self._record(
                    "MC-REF",
                    f"op:{ops[i]}",
                    f"{ops[i]} completes while unit {units[slot]}'s CSG "
                    f"still reports not-done ({code % L} cycle(s) left, "
                    f"depth {next_depth}) — the completion signal lied",
                    state_id,
                    expects="protocol",
                )
            del executing[slot]
            done_after |= low
        if overruns:
            self._overruns(overruns, done, done_after, state_id, next_depth)
        # Starts: refinement checks, then branch over telescope levels.
        # A double-booked start is dropped (the unit keeps its current
        # operation, as the hardware's result register arbitration
        # would).  Starts go in op (name) order, the simulator's order,
        # so of two starts on one idle unit the first one runs.
        options: list[_Options] = []
        taken: dict[int, int] = {}  # unit slot -> op started this cycle
        while started:
            low = started & -started
            started ^= low
            i = low.bit_length() - 1
            slot = op_slot[i]
            busy = executing.get(slot)
            if busy is not None:
                self._record(
                    "MC-REF",
                    f"op:{ops[i]}",
                    f"unit {units[slot]} double-booked: {ops[i]} "
                    f"starts while {ops[busy // L % n_ops]} is still "
                    f"executing (depth {next_depth})",
                    state_id,
                    expects="protocol",
                )
                continue
            first = taken.setdefault(slot, i)
            if first != i:
                self._record(
                    "MC-REF",
                    f"op:{ops[i]}",
                    f"unit {units[slot]} double-booked: {ops[i]} "
                    f"starts in the same cycle as {ops[first]} (depth "
                    f"{next_depth})",
                    state_id,
                    expects="protocol",
                )
                continue
            if done_after & low:
                # Wrap-around restart of the next iteration: follow it
                # at the fast level without re-branching.
                options.append(self.restart[i])
                continue
            missing = self.preds[i] & ~done_after
            if missing:
                self._record(
                    "MC-REF",
                    f"op:{ops[i]}",
                    f"{ops[i]} starts before execution-graph "
                    f"predecessor(s) {', '.join(self._names(missing))} "
                    f"completed (depth {next_depth}) — the CENT-SYNC "
                    f"specification refuses this firing sequence",
                    state_id,
                    expects="protocol",
                )
            options.append(self.start_options[i])
        survivors = [
            code - 1 if code % L else code for code in executing.values()
        ]
        children = self.succs[state_id]
        for combo in product(*options):
            codes = survivors + [code for code, _ in combo]
            codes.sort()
            children.append(
                self._admit(
                    (next_states, next_flags, tuple(codes), done_after),
                    state_id,
                    tuple([choice for _, choice in combo if choice]),
                    queue,
                )
            )
        self.transitions += len(children)

    def _double_drivers(
        self, rows: "list[tuple]", state_id: int, depth: int
    ) -> None:
        """Name the controllers of every ``CC`` net pulsed twice."""
        emitters: dict[str, tuple[str, ...]] = {}
        for key, row in zip(self.system.keys, rows):
            for op in row[_EMITTED]:
                emitters[op] = emitters.get(op, ()) + (key,)
        for op, keys in sorted(emitters.items()):
            if len(keys) > 1:
                self._record(
                    "MC-RACE",
                    f"net:CC_{op}",
                    f"controllers {', '.join(keys)} all assert CC_{op} "
                    f"in one reachable cycle (depth {depth})",
                    state_id,
                    expects="protocol",
                )

    def _overruns(
        self, word: int, done: int, done_after: int, state_id: int, depth: int
    ) -> None:
        """MC-RACE (b): first-delivery token overrun.

        Overruns whose producer or consumer already completed are legal
        wrap-around pipelining artifacts (the simulator merely counts
        them); a pulse hitting a latched flag while both endpoints are
        still pending is a genuine double delivery within one iteration.
        """
        pending = []
        while word:
            low = word & -word
            word ^= low
            edge, producer, consumer = self.latch[low.bit_length() - 1]
            if not (done & producer or done_after & consumer):
                pending.append(edge)
        for key, consumer_op, producer_op in sorted(pending):
            self._record(
                "MC-RACE",
                f"latch:{key}:{producer_op}->{consumer_op}",
                f"completion pulse CC_{producer_op} lands on the "
                f"already-latched arrival flag of pending consumer "
                f"{consumer_op} on {key} (depth {depth})",
                state_id,
                expects="protocol",
            )

    # -- the run ---------------------------------------------------------
    def run(self) -> None:
        queue: "deque[int]" = deque()
        # Initial states: branch over the levels of the cycle-0 starts.
        # As in _expand, of two starts on one unit the first in op
        # (name) order runs and the later one is dropped.
        starts: list[int] = []
        doubles: list[tuple[int, int]] = []  # (dropped op, running op)
        taken: dict[int, int] = {}  # unit slot -> op started at cycle 0
        for op in sorted(self.system.initial_starts()):
            i = self.ops.index(op)
            first = taken.setdefault(self.op_slot[i], i)
            if first == i:
                starts.append(i)
            else:
                doubles.append((i, first))
        states = self.system.initial_config().states
        for combo in product(*(self.start_options[i] for i in starts)):
            entries = tuple(sorted(code for code, _ in combo))
            recorded = tuple(choice for _, choice in combo if choice)
            self._admit((states, 0, entries, 0), -1, recorded, queue)
        for i, first in doubles:
            self._record(
                "MC-REF",
                f"op:{self.ops[i]}",
                f"unit {self.units[self.op_slot[i]]} double-booked: "
                f"{self.ops[i]} starts in the same cycle as "
                f"{self.ops[first]} (depth 0)",
                0,
                expects="protocol",
            )
        for i in starts:
            if self.preds[i]:
                self._record(
                    "MC-REF",
                    f"op:{self.ops[i]}",
                    f"{self.ops[i]} starts at cycle 0 before "
                    f"execution-graph predecessor(s) "
                    f"{', '.join(self._names(self.preds[i]))} completed",
                    0,
                    expects="protocol",
                )
        while queue:
            self._expand(queue.popleft(), queue)

    # -- MC-DEAD ---------------------------------------------------------
    def find_deadlocks(self) -> None:
        """Backward co-reachability: states that cannot finish."""
        total = len(self.states)
        reverse: list[list[int]] = [[] for _ in range(total)]
        for source, children in enumerate(self.succs):
            for child in children:
                reverse[child].append(source)
        alive = [False] * total
        stack = [i for i in range(total) if self.accepting[i]]
        for i in stack:
            alive[i] = True
        while stack:
            node = stack.pop()
            for source in reverse[node]:
                if not alive[source]:
                    alive[source] = True
                    stack.append(source)
        seen_signatures: set[tuple[str, ...]] = set()
        for state_id in range(total):
            if alive[state_id]:
                continue
            states, _, _, done = self.states[state_id]
            pending = tuple(self._names(self.all_done & ~done))
            if pending in seen_signatures:
                continue
            seen_signatures.add(pending)
            states_text = ", ".join(
                f"{k}={s}" for k, s in zip(self.system.keys, states)
            )
            message = (
                f"reachable quiescent-but-incomplete state at depth "
                f"{self.depth[state_id]}: operation(s) "
                f"{', '.join(pending)} can never complete "
                f"(controller states {states_text})"
            )
            wedge = self.wedged.get(state_id)
            if wedge is not None:
                message += f"; a controller wedges: {wedge}"
            self._record(
                "MC-DEAD",
                "pending:" + ",".join(pending),
                message,
                state_id,
                expects="deadlock",
            )


def check_target(
    target: LintTarget,
    max_states: int = DEFAULT_MAX_STATES,
    max_frontier: int = DEFAULT_MAX_FRONTIER,
) -> ModelCheckResult:
    """Model-check a prepared artifact bundle.

    Explores every reachable state of the composed controller network
    under all realizable completion schedules and returns the
    byte-stable report of MC-DEAD / MC-RACE / MC-REF findings plus one
    replayable counterexample per finding.  Raises
    :class:`~repro.errors.ModelCheckBudgetExceeded` when the state or
    frontier budget is exhausted before the frontier drains.
    """
    explorer = _Explorer(target, max_states, max_frontier)
    explorer.run()
    explorer.find_deadlocks()
    report = DiagnosticReport.build(
        target.name, [v.diagnostic for v in explorer.found.values()]
    )
    by_key = {
        (v.diagnostic.rule, v.diagnostic.location): v.cex
        for v in explorer.found.values()
    }
    counterexamples = tuple(
        by_key[(d.rule, d.location)] for d in report.diagnostics
    )
    return ModelCheckResult(
        design=target.name,
        states=len(explorer.states),
        transitions=explorer.transitions,
        accepting=sum(explorer.accepting),
        max_depth=max(explorer.depth, default=0),
        report=report,
        counterexamples=counterexamples,
    )


def check_result(
    result: "SynthesisResult",
    name: "str | None" = None,
    max_states: int = DEFAULT_MAX_STATES,
    max_frontier: int = DEFAULT_MAX_FRONTIER,
) -> ModelCheckResult:
    """Model-check a finished synthesis result."""
    return check_target(
        LintTarget.from_result(result, name=name),
        max_states=max_states,
        max_frontier=max_frontier,
    )


def check_store(
    store: "ArtifactStore",
    name: "str | None" = None,
    max_states: int = DEFAULT_MAX_STATES,
    max_frontier: int = DEFAULT_MAX_FRONTIER,
) -> ModelCheckResult:
    """Model-check a pipeline artifact store (post-``distributed``)."""
    return check_target(
        LintTarget.from_store(store, name=name),
        max_states=max_states,
        max_frontier=max_frontier,
    )


def check_benchmark(
    name: str,
    allocation: "str | None" = None,
    scheduler: str = "list",
    max_states: int = DEFAULT_MAX_STATES,
    max_frontier: int = DEFAULT_MAX_FRONTIER,
) -> ModelCheckResult:
    """Synthesize a registered benchmark and model-check the network."""
    from ..api import synthesize
    from ..benchmarks.registry import benchmark

    entry = benchmark(name)
    result = synthesize(
        entry.factory(),
        allocation if allocation is not None else entry.allocation(),
        scheduler=scheduler,
    )
    return check_result(
        result,
        name=name,
        max_states=max_states,
        max_frontier=max_frontier,
    )
