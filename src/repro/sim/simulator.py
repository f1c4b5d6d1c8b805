"""Cycle-accurate simulation of control units over a bound dataflow graph.

Drives a :class:`~repro.sim.controllers.ControllerSystem` — distributed
per-unit controllers, the centralized synchronized FSM, or the product
CENT-FSM — clock edge by clock edge:

1. sample the completion model when an operation starts on a telescopic
   unit (optionally feeding it real operand values from a
   :class:`~repro.sim.datapath.Datapath`),
2. present each unit's CSG value during the operation's first cycle,
3. step every controller (through the system's interned transition
   table), deliver completion pulses, update latches,
4. record start/finish cycles per operation and per iteration.

Every run checks unit occupancy, completion timing and quiescent
deadlock, and raises the structured errors of :mod:`repro.errors` when
one fails; :class:`MonitorConfig` adds the opt-in handshake check.

The first-iteration latency this measures is exactly what the paper's
Table 2 reports; the analytic engine in :mod:`repro.analysis` must agree
cycle-for-cycle (enforced by tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from ..binding.binder import BoundDataflowGraph
from ..errors import DeadlockError, ProtocolError, SimulationError
from ..resources.completion import CompletionModel
from .controllers import ControllerSystem
from .datapath import Datapath
from .trace import CycleRecord, SimulationTrace


@dataclass(frozen=True)
class MonitorConfig:
    """The opt-in runtime monitor of the simulator.

    The occupancy, timing and deadlock monitors always run: they check
    invariants of every correct control unit, so they can only fire when
    something (a fault injector, a hand-mutated FSM) broke the protocol.
    ``handshake`` promotes token overruns on the completion-arrival latches
    to :class:`~repro.errors.ProtocolError`; overruns are *legal* under
    overlapped iterations (they mark where a real design needs deeper
    buffering), so strict handshake checking is opt-in and meant for
    single-iteration fault campaigns.
    """

    handshake: bool = False


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run."""

    cycles: int
    clock_ns: float
    start_cycles: Mapping[str, int]
    finish_cycles: Mapping[str, int]
    iteration_finish_cycles: tuple[int, ...]
    fast_outcomes: Mapping[str, tuple[bool, ...]]
    level_outcomes: Mapping[str, tuple[int, ...]] = field(
        default_factory=dict
    )
    token_overruns: int = 0
    trace: "SimulationTrace | None" = None
    datapath: "Datapath | None" = None

    @property
    def latency_ns(self) -> float:
        """First-iteration latency in nanoseconds."""
        return self.cycles * self.clock_ns

    def throughput_cycles(self) -> float:
        """Average cycles per iteration in steady state (>= 2 iterations)."""
        finishes = self.iteration_finish_cycles
        if len(finishes) < 2:
            raise SimulationError(
                "throughput needs at least two simulated iterations"
            )
        return (finishes[-1] - finishes[0]) / (len(finishes) - 1)


def simulate(
    system: ControllerSystem,
    bound: BoundDataflowGraph,
    completion: CompletionModel,
    *,
    iterations: int = 1,
    seed: int = 0,
    inputs: "Mapping[str, int | Sequence[int]] | None" = None,
    record_trace: bool = False,
    max_cycles: "int | None" = None,
    monitors: "MonitorConfig | None" = None,
) -> SimulationResult:
    """Run a controller system until every op completed ``iterations`` times.

    ``inputs`` enables the value-computing datapath (required for
    operand-dependent completion models).  ``max_cycles`` bounds the run
    and turns controller livelocks into errors instead of hangs.  The
    occupancy, timing and quiescence-deadlock monitors always run;
    ``monitors`` turns on strict handshake checking (see
    :class:`MonitorConfig`).  Protocol violations raise
    :class:`~repro.errors.ProtocolError` and stalls raise
    :class:`~repro.errors.DeadlockError` with machine-readable context.
    """
    if monitors is None:
        monitors = MonitorConfig()
    if iterations < 1:
        raise SimulationError("iterations must be >= 1")
    completion.reset()
    rng = random.Random(seed)
    ops = system.all_ops()
    if not ops:
        raise SimulationError("controller system drives no operations")
    missing = ops - set(bound.dfg.op_names())
    if missing:
        raise SimulationError(f"controllers reference unknown ops {missing}")
    durations = bound.duration_table
    if max_cycles is None:
        max_cycles = 16 + 4 * iterations * sum(
            durations[op][-1] for op in ops
        )
    datapath = Datapath(bound.dfg, inputs) if inputs is not None else None
    trace = SimulationTrace() if record_trace else None

    config = system.initial_config()
    executing: dict[str, tuple[str, int, int]] = {}  # unit -> (op, duration, t0)
    start_cycles: dict[str, int] = {}
    finish_cycles: dict[str, int] = {}
    completions: dict[str, int] = {op: 0 for op in ops}
    fast_outcomes: dict[str, list[bool]] = {op: [] for op in ops}
    level_outcomes: dict[str, list[int]] = {op: [] for op in ops}
    iteration_finish: list[int] = []
    overruns = 0

    unit_of_op = {op: bound.unit_of(op) for op in ops}
    unit_name_of = {op: unit.name for op, unit in unit_of_op.items()}
    telescopic = frozenset(
        op for op, unit in unit_of_op.items() if unit.is_telescopic
    )

    def begin(op: str, cycle: int) -> None:
        unit_name = unit_name_of[op]
        if unit_name in executing:
            busy_op = executing[unit_name][0]
            raise ProtocolError(
                f"occupancy violation: unit {unit_name!r} is busy with "
                f"{busy_op!r} but a controller started {op!r} at cycle "
                f"{cycle}",
                kind="occupancy",
                cycle=cycle,
                op=op,
                unit=unit_name,
            )
        operands = datapath.start(op) if datapath is not None else None
        if op in telescopic:
            level = int(
                completion.sample_level(op, unit_of_op[op], operands, rng)
            )
        else:
            level = 0
        duration = durations[op][level]
        level_outcomes[op].append(level)
        fast_outcomes[op].append(level == 0)
        executing[unit_name] = (op, duration, cycle)
        start_cycles.setdefault(op, cycle)

    # Sorted iteration over start/complete sets keeps error reporting
    # deterministic across processes (frozenset order follows the
    # per-process string hash seed).
    for op in sorted(system.initial_starts()):
        begin(op, 0)

    def deadlock_context() -> dict:
        pending = tuple(
            sorted(op for op in ops if completions[op] < iterations)
        )
        # Completion nets a stuck consumer is waiting on: a dependence
        # edge of a pending op whose arrival flag is empty is exactly a
        # ``CC_<producer>`` token that never arrived — on an injected
        # handshake fault this names the faulted net.
        starved = tuple(
            edge
            for edge in system.dependence_edges()
            if edge[1] in pending and edge not in config.flags
        )
        return {
            "cycle": cycle,
            "pending_ops": pending,
            "executing": {u: rec[0] for u, rec in sorted(executing.items())},
            "controller_states": dict(zip(system.keys, config.states)),
            "starved_edges": starved,
        }

    def deadlock_detail() -> str:
        ctx = deadlock_context()
        never_started = sorted(set(ctx["pending_ops"]) - set(start_cycles))
        busy = (
            ", ".join(f"{u}:{o}" for u, o in ctx["executing"].items())
            or "none"
        )
        states = ", ".join(
            f"{k}={s}" for k, s in ctx["controller_states"].items()
        )
        starved = "; ".join(
            f"{consumer} (on {key}) awaits net CC_{producer}"
            for key, consumer, producer in ctx["starved_edges"]
        )
        detail = (
            f"executing units: {busy}; pending ops: "
            f"{list(ctx['pending_ops'])}; never started: {never_started}; "
            f"controller states: {states}"
        )
        if starved:
            detail += f"; starved: {starved}"
        return detail

    # Fault injectors that act in a bounded cycle window advertise the last
    # cycle they may still fire; past it, a repeated configuration with no
    # countdown in flight can never resolve (the step function is pure).
    fault_horizon = getattr(system, "fault_horizon", -1)
    previous_snapshot: "tuple | None" = None
    cycle = 0
    num_ops = len(ops)
    target = iterations * num_ops
    total_done = 0
    # done_at[k] counts ops with >= k completions (k in 1..iterations):
    # the incremental form of the per-cycle "is iteration k finished"
    # scan, which was O(iterations × ops) per clock edge.
    done_at = [0] * (iterations + 1)
    while total_done < target:
        if cycle >= max_cycles:
            raise DeadlockError(
                f"simulation exceeded {max_cycles} cycles "
                f"({total_done}/{target} completions) — deadlock or "
                f"livelock in the control unit; {deadlock_detail()}",
                max_cycles=max_cycles,
                **deadlock_context(),
            )
        # The CSG reports "done by now": true from the cycle the sampled
        # telescope level's delay is covered.  Two-level FSMs only look
        # during the first cycle; multi-level extension states re-check.
        unit_completions = {
            unit: (cycle - t0 + 1) >= duration
            for unit, (op, duration, t0) in executing.items()
        }
        # Quiescence watchdog: if the configuration and every CSG value
        # repeat with no countdown left to flip (all reported done) and
        # no fault window still open, every future step is identical.
        # The completion count is part of the snapshot: under wrap-
        # around pipelining a controller may legally complete-and-
        # restart the same op every cycle at a fixed configuration —
        # progress with a repeating config is not a deadlock.
        # The snapshot is only materialized on quiescent cycles (all
        # CSGs report done): an unstable cycle can never equal a
        # stable one — its completion tuple differs — so recording it
        # only costs time on the hot path.
        if all(unit_completions.values()):
            snapshot = (
                config,
                tuple(sorted(unit_completions.items())),
                total_done,
            )
            if snapshot == previous_snapshot and cycle > fault_horizon:
                raise DeadlockError(
                    f"deadlock at cycle {cycle}: the control unit is "
                    f"quiescent with {total_done}/{target} completions "
                    f"and can never progress; {deadlock_detail()}",
                    max_cycles=max_cycles,
                    **deadlock_context(),
                )
            previous_snapshot = snapshot
        else:
            previous_snapshot = None
        result = system.transition(config, unit_completions)
        if trace is not None:
            trace.append(
                CycleRecord(
                    cycle=cycle,
                    states=tuple(zip(system.keys, config.states)),
                    unit_completions=tuple(sorted(unit_completions.items())),
                    outputs=result.outputs,
                    starts=result.starts,
                    completes=result.completes,
                )
            )
        completes = result.completes
        if len(completes) > 1:
            completes = sorted(completes)
        for op in completes:
            unit = unit_name_of.get(op) or bound.unit_of(op).name
            record = executing.get(unit)
            if record is None or record[0] != op:
                raise ProtocolError(
                    f"controller completed {op!r} but unit {unit!r} is not "
                    f"executing it",
                    kind="phantom-completion",
                    cycle=cycle,
                    op=op,
                    unit=unit,
                )
            elapsed = cycle - record[2] + 1
            if elapsed < record[1]:
                raise ProtocolError(
                    f"premature completion: {op!r} on unit {unit!r} "
                    f"completed after {elapsed} cycle(s) at cycle {cycle} "
                    f"but its sampled telescope level needs {record[1]} — "
                    f"the completion signal lied",
                    kind="timing",
                    cycle=cycle,
                    op=op,
                    unit=unit,
                )
            del executing[unit]
            finish_cycles.setdefault(op, cycle + 1)
            completions[op] += 1
            count = completions[op]
            if count <= iterations:
                total_done += 1
                done_at[count] += 1
        starts = result.starts
        if len(starts) > 1:
            starts = sorted(starts)
        for op in starts:
            begin(op, cycle + 1)
        if monitors.handshake and result.overruns:
            edges = tuple(sorted(result.overruns))
            listed = ", ".join(
                f"{ctrl}: {producer}->{consumer}"
                for ctrl, consumer, producer in edges
            )
            raise ProtocolError(
                f"token overrun at cycle {cycle}: a completion pulse hit "
                f"an already-latched arrival flag ({listed}) — a pulse "
                f"must be consumed exactly once",
                kind="overrun",
                cycle=cycle,
                edges=edges,
            )
        overruns += len(result.overruns)
        config = result.config
        cycle += 1
        while (
            len(iteration_finish) < iterations
            and done_at[len(iteration_finish) + 1] == num_ops
        ):
            iteration_finish.append(cycle)

    if datapath is not None:
        for k in range(iterations):
            datapath.verify_iteration(k)

    return SimulationResult(
        cycles=iteration_finish[0],
        clock_ns=bound.allocation.clock_period_ns(),
        start_cycles=start_cycles,
        finish_cycles=finish_cycles,
        iteration_finish_cycles=tuple(iteration_finish),
        fast_outcomes={
            op: tuple(v) for op, v in fast_outcomes.items()
        },
        level_outcomes={
            op: tuple(v) for op, v in level_outcomes.items()
        },
        token_overruns=overruns,
        trace=trace,
        datapath=datapath,
    )
