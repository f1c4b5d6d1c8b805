"""A reference model checker that steps the network through ``step``.

:func:`reference_check` is the explorer ``repro.verify.modelcheck`` ran
before it moved onto packed words: each state is an :class:`MCState` of
a :class:`SystemConfig`, ``(unit, op, countdown)`` entries and the set
of completed ops, and each expansion calls ``ControllerSystem.step``
and reads the :class:`SystemStep` it returns.  It shares no stepping or
checking code with the packed explorer, so tests can hold every field
of :class:`ModelCheckResult` and every counterexample against it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import FSMError, ModelCheckBudgetExceeded, SimulationError
from repro.sim.controllers import ControllerSystem, SystemConfig
from repro.sim.stimulus import CounterexampleStimulus
from repro.verify.diagnostics import DiagnosticReport
from repro.verify.modelcheck import (
    _HINT,
    DEFAULT_MAX_FRONTIER,
    DEFAULT_MAX_STATES,
    ModelCheckResult,
)
from repro.verify.rules import diag
from repro.verify.target import LintTarget


@dataclass(frozen=True)
class MCState:
    """One explored state of the composed network.

    ``executing`` holds one ``(unit, op, left)`` entry per busy unit:
    the operation it runs and the clamped countdown until its CSG
    reports done (``C = left <= 0``).  ``done`` is the set of
    operations that completed at least once — the implicit CENT-SYNC
    acceptor state.
    """

    config: SystemConfig
    executing: tuple[tuple[str, str, int], ...]
    done: frozenset[str]


class ReferenceExplorer:
    """BFS over the level-choice-branching network semantics."""

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
        self.ops = tuple(sorted(self.system.all_ops()))
        op_set = frozenset(self.ops)
        self.all_done = op_set
        # The CENT-SYNC partial order: execution-graph predecessors.
        preds: dict[str, tuple[str, ...]] = {op: () for op in self.ops}
        for u, v in bound.execution_edges():
            if u in op_set and v in op_set:
                preds[v] = preds[v] + (u,)
        self.preds = {
            op: tuple(sorted(set(ps))) for op, ps in preds.items()
        }
        self.unit_of = {
            op: bound.unit_of(op).name for op in self.ops
        }
        self.levels_of = {
            op: (
                tuple(range(bound.unit_of(op).num_levels))
                if bound.unit_of(op).is_telescopic
                else (0,)
            )
            for op in self.ops
        }
        self.left_of = {
            (op, level): max(
                bound.duration_for_level(op, level) - 1, 0
            )
            if bound.unit_of(op).is_telescopic
            else max(bound.duration_cycles(op, fast=True) - 1, 0)
            for op in self.ops
            for level in self.levels_of[op]
        }
        # BFS bookkeeping, indexed by state id (discovery order).
        self.index: dict[MCState, int] = {}
        self.states: list[MCState] = []
        self.parent: list[int] = []
        self.choices: list[tuple[tuple[str, int], ...]] = []
        self.depth: list[int] = []
        self.succs: list[list[int]] = []
        self.accepting: list[bool] = []
        self.wedged: dict[int, str] = {}
        self.transitions = 0
        # First (shortest) violation per (rule, location) key: the
        # diagnostic and its counterexample.
        self.found: dict[tuple[str, str], tuple] = {}

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
            handshake=expects == "protocol",
        )
        self.found[key] = (d, cex)

    # -- state admission -------------------------------------------------
    def _admit(
        self,
        state: MCState,
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
        is_accepting = state.done >= self.all_done
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
    def _start_ops(
        self,
        state_id: int,
        starts: "tuple[str, ...]",
        executing: dict[str, tuple[str, int]],
        done: frozenset[str],
    ) -> "list[tuple[str, tuple[int, ...]]]":
        """Validate starts against the spec; return the branch points."""
        branch: list[tuple[str, tuple[int, ...]]] = []
        started: dict[str, str] = {}  # unit -> op started this cycle
        for op in starts:
            unit = self.unit_of[op]
            if unit in executing:
                busy = executing[unit][0]
                self._record(
                    "MC-REF",
                    f"op:{op}",
                    f"unit {unit} double-booked: {op} starts while "
                    f"{busy} is still executing (depth "
                    f"{self.depth[state_id] + 1})",
                    state_id,
                    expects="protocol",
                )
                continue
            if unit in started:
                self._record(
                    "MC-REF",
                    f"op:{op}",
                    f"unit {unit} double-booked: {op} starts in the "
                    f"same cycle as {started[unit]} (depth "
                    f"{self.depth[state_id] + 1})",
                    state_id,
                    expects="protocol",
                )
                continue
            started[unit] = op
            if op in done:
                branch.append((op, (0,)))
                continue
            missing = tuple(
                p for p in self.preds[op] if p not in done
            )
            if missing:
                self._record(
                    "MC-REF",
                    f"op:{op}",
                    f"{op} starts before execution-graph "
                    f"predecessor(s) {', '.join(missing)} completed "
                    f"(depth {self.depth[state_id] + 1}) — the "
                    f"CENT-SYNC specification refuses this firing "
                    f"sequence",
                    state_id,
                    expects="protocol",
                )
            branch.append((op, self.levels_of[op]))
        return branch

    def _expand(self, state_id: int, queue: "deque[int]") -> None:
        state = self.states[state_id]
        executing = {
            unit: (op, left) for unit, op, left in state.executing
        }
        unit_completions = {
            unit: left <= 0
            for unit, (op, left) in executing.items()
        }
        try:
            step = self.system.step(state.config, unit_completions)
        except (FSMError, SimulationError) as exc:
            self.wedged[state_id] = str(exc)
            return
        next_depth = self.depth[state_id] + 1
        for op, keys in step.emitters:
            if len(keys) > 1:
                self._record(
                    "MC-RACE",
                    f"net:CC_{op}",
                    f"controllers {', '.join(keys)} all assert CC_{op} "
                    f"in one reachable cycle (depth {next_depth})",
                    state_id,
                    expects="protocol",
                )
        done = set(state.done)
        for op in sorted(step.completes):
            unit = self.unit_of[op]
            record = executing.get(unit)
            if record is None or record[0] != op:
                self._record(
                    "MC-REF",
                    f"op:{op}",
                    f"{op} completes but unit {unit} is not executing "
                    f"it (depth {next_depth})",
                    state_id,
                    expects="protocol",
                )
                continue
            if record[1] > 0:
                self._record(
                    "MC-REF",
                    f"op:{op}",
                    f"{op} completes while unit {unit}'s CSG still "
                    f"reports not-done ({record[1]} cycle(s) left, "
                    f"depth {next_depth}) — the completion signal "
                    f"lied",
                    state_id,
                    expects="protocol",
                )
            del executing[unit]
            done.add(op)
        done_after = frozenset(done)
        for key, consumer, producer in sorted(step.overruns):
            if producer in state.done or consumer in done_after:
                continue
            self._record(
                "MC-RACE",
                f"latch:{key}:{producer}->{consumer}",
                f"completion pulse CC_{producer} lands on the "
                f"already-latched arrival flag of pending consumer "
                f"{consumer} on {key} (depth {next_depth})",
                state_id,
                expects="protocol",
            )
        branch = self._start_ops(
            state_id, tuple(sorted(step.starts)), executing, done_after
        )
        survivors = tuple(
            (unit, op, max(left - 1, 0))
            for unit, (op, left) in executing.items()
        )
        combos: list[tuple[tuple[str, int], ...]] = [()]
        for op, levels in branch:
            combos = [
                combo + ((op, level),)
                for combo in combos
                for level in levels
            ]
        for combo in combos:
            entries = list(survivors)
            recorded: list[tuple[str, int]] = []
            for op, level in combo:
                entries.append(
                    (self.unit_of[op], op, self.left_of[(op, level)])
                )
                if len(self.levels_of[op]) > 1 and op not in done_after:
                    recorded.append((op, level))
            successor = MCState(
                config=step.config,
                executing=tuple(sorted(entries)),
                done=done_after,
            )
            child = self._admit(
                successor, state_id, tuple(recorded), queue
            )
            self.succs[state_id].append(child)
            self.transitions += 1

    # -- the run ---------------------------------------------------------
    def run(self) -> None:
        queue: "deque[int]" = deque()
        # Of two cycle-0 starts on one unit the first in name order
        # runs; the later one is dropped, as in _start_ops.
        initial_starts: list[str] = []
        doubles: list[tuple[str, str]] = []  # (dropped op, running op)
        started: dict[str, str] = {}  # unit -> op started at cycle 0
        for op in sorted(self.system.initial_starts()):
            first = started.setdefault(self.unit_of[op], op)
            if first == op:
                initial_starts.append(op)
            else:
                doubles.append((op, first))
        config = self.system.initial_config()
        branch = [(op, self.levels_of[op]) for op in initial_starts]
        combos: list[tuple[tuple[str, int], ...]] = [()]
        for op, levels in branch:
            combos = [
                combo + ((op, level),)
                for combo in combos
                for level in levels
            ]
        for combo in combos:
            entries = tuple(
                sorted(
                    (self.unit_of[op], op, self.left_of[(op, level)])
                    for op, level in combo
                )
            )
            recorded = tuple(
                (op, level)
                for op, level in combo
                if len(self.levels_of[op]) > 1
            )
            state = MCState(
                config=config, executing=entries, done=frozenset()
            )
            self._admit(state, -1, recorded, queue)
        for op, first in doubles:
            self._record(
                "MC-REF",
                f"op:{op}",
                f"unit {self.unit_of[op]} double-booked: {op} starts in "
                f"the same cycle as {first} (depth 0)",
                0,
                expects="protocol",
            )
        for op in initial_starts:
            if self.preds[op]:
                self._record(
                    "MC-REF",
                    f"op:{op}",
                    f"{op} starts at cycle 0 before execution-graph "
                    f"predecessor(s) {', '.join(self.preds[op])} "
                    f"completed",
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
            state = self.states[state_id]
            pending = tuple(
                sorted(self.all_done - state.done)
            )
            if pending in seen_signatures:
                continue
            seen_signatures.add(pending)
            states_text = ", ".join(
                f"{k}={s}"
                for k, s in zip(self.system.keys, state.config.states)
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


def reference_check(
    target: LintTarget,
    max_states: int = DEFAULT_MAX_STATES,
    max_frontier: int = DEFAULT_MAX_FRONTIER,
) -> ModelCheckResult:
    """The :class:`ModelCheckResult` of one design, computed the slow way."""
    explorer = ReferenceExplorer(target, max_states, max_frontier)
    explorer.run()
    explorer.find_deadlocks()
    report = DiagnosticReport.build(
        target.name, [d for d, _ in explorer.found.values()]
    )
    by_key = {(d.rule, d.location): cex for d, cex in explorer.found.values()}
    return ModelCheckResult(
        design=target.name,
        states=len(explorer.states),
        transitions=explorer.transitions,
        accepting=sum(explorer.accepting),
        max_depth=max(explorer.depth, default=0),
        report=report,
        counterexamples=tuple(
            by_key[(d.rule, d.location)] for d in report.diagnostics
        ),
    )
