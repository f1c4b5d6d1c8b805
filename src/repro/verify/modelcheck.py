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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import (
    FSMError,
    ModelCheckBudgetExceeded,
    SimulationError,
)
from ..sim.controllers import ControllerSystem, SystemConfig
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


class _Explorer:
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
        # First (shortest) violation per (rule, location) key.
        self.found: dict[tuple[str, str], _Violation] = {}

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
        """Validate starts against the spec; return the branch points.

        Returns ``(op, candidate levels)`` for every admissible start;
        occupancy violations drop the start (the unit keeps its current
        operation, as the hardware's result register arbitration
        would).
        """
        branch: list[tuple[str, tuple[int, ...]]] = []
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
            if op in done:
                # Wrap-around restart of the next iteration: follow it
                # at the fast level without re-branching.
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
        # MC-RACE (a): two controllers asserting one CC net.
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
        # Completions: retire executing entries, feed the acceptor.
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
        # MC-RACE (b): first-delivery token overrun.  Overruns whose
        # producer or consumer already completed are legal wrap-around
        # pipelining artifacts (the simulator merely counts them); a
        # pulse hitting a latched flag while both endpoints are still
        # pending is a genuine double delivery within one iteration.
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
        # Starts: refinement checks, then branch over telescope levels.
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
        # Initial states: branch over the levels of the cycle-0 starts.
        initial_starts = tuple(sorted(self.system.initial_starts()))
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
