"""Composable, deterministic fault injectors for controller systems.

Each injector models one physical failure mode of the distributed control
unit at the level the cycle-accurate simulator observes it:

* :class:`StuckCompletionFault` — a unit's CSG wire stuck at 0/1 (the CSG
  lies about the telescope outcome),
* :class:`DelayedCompletionFault` — the CSG asserts late (marginal timing
  on the completion path),
* :class:`DroppedPulseFault` — a ``CC_*`` handshake pulse lost on an
  inter-controller net (no consumer sees it, no arrival latch sets),
* :class:`SpuriousPulseFault` — a glitch pulses a completion net whose
  producer did not complete,
* :class:`StateFlipFault` — a transient bit flip forcing one controller
  into a different state (SEU on the state register).

Injectors are deterministic: given the same construction parameters they
perturb the same cycles in the same way, so a seeded campaign is
bit-reproducible.  :func:`inject` wraps any
:class:`~repro.sim.controllers.ControllerSystem` into a
:class:`FaultyControllerSystem` that the unmodified simulator drives;
the wrapper advertises a ``fault_horizon`` so the simulator's quiescence
watchdog knows when no fault window can still open.

:class:`IntermittentCompletion` is the completion-model-level counterpart
(built on :class:`~repro.resources.completion.DelegatingCompletion`): it
degrades chosen executions of one operation to the slowest telescope
level, modelling an operand population drifting out of the fast group —
a performance fault rather than a protocol fault.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from collections.abc import Sequence

from ..errors import SimulationError
from ..resources.completion import DelegatingCompletion
from ..sim.controllers import ControllerSystem, SystemConfig, SystemStep

_FOREVER = 1 << 30  # horizon for unbounded fault windows


class FaultInjector(abc.ABC):
    """One deterministic perturbation of a running controller system."""

    #: short machine-readable fault-class tag (used by campaign reports)
    kind: str = "fault"

    @property
    def horizon(self) -> int:
        """Last cycle at which this fault may act *spontaneously*.

        Purely reactive faults (those that only modify events the system
        itself produced, like dropping a freshly latched token) return -1:
        they can never wake a quiescent system.
        """
        return -1

    def on_unit_completions(
        self, cycle: int, completions: "dict[str, bool]"
    ) -> None:
        """Mutate the CSG values presented to the controllers in place."""

    def suppress_pulses(
        self, cycle: int, emitted: frozenset[str]
    ) -> frozenset[str]:
        """Producer ops whose ``CC`` pulse dies on the net this cycle.

        ``emitted`` lists the producers that actually pulse this cycle
        (derived from a trial evaluation of the pure step function), so
        occurrence-counting injectors see real traffic.  Called exactly
        once per cycle.
        """
        return frozenset()

    def inject_pulses(self, cycle: int) -> frozenset[str]:
        """Producer ops whose net pulses spuriously this cycle."""
        return frozenset()

    def after_step(
        self,
        cycle: int,
        system: ControllerSystem,
        before: SystemConfig,
        step: SystemStep,
    ) -> SystemStep:
        """Rewrite the step result (states / arrival flags) post hoc."""
        return step

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line human description naming the faulted net/unit."""

    def target(self) -> "dict[str, object]":
        """Machine-readable target description for campaign reports."""
        return {"kind": self.kind}


@dataclass
class StuckCompletionFault(FaultInjector):
    """``C_<unit>`` stuck at ``value`` during ``[first_cycle, last_cycle]``.

    Stuck-at-1 makes the CSG *lie fast* — controllers complete operations
    whose sampled telescope level is not yet covered (caught by the timing
    monitor).  Stuck-at-0 makes it lie slow — two-level controllers fall
    back to the worst-case delay (tolerated by construction), re-checking
    multi-level or synchronized controllers may stall (caught by the
    deadlock watchdog).
    """

    unit: str
    value: bool
    first_cycle: int = 0
    last_cycle: "int | None" = None

    kind = "stuck-completion"

    @property
    def horizon(self) -> int:
        return self.last_cycle if self.last_cycle is not None else _FOREVER

    def on_unit_completions(self, cycle, completions) -> None:
        if cycle < self.first_cycle:
            return
        if self.last_cycle is not None and cycle > self.last_cycle:
            return
        completions[self.unit] = self.value

    def describe(self) -> str:
        window = (
            f"cycles {self.first_cycle}.."
            f"{'∞' if self.last_cycle is None else self.last_cycle}"
        )
        return (
            f"C_{self.unit} stuck-at-{int(self.value)} during {window}"
        )

    def target(self) -> "dict[str, object]":
        return {
            "kind": self.kind,
            "unit": self.unit,
            "value": int(self.value),
            "first_cycle": self.first_cycle,
            "last_cycle": self.last_cycle,
        }


@dataclass
class DelayedCompletionFault(FaultInjector):
    """``C_<unit>`` asserts ``delay`` cycles late within a cycle window.

    Models a slow completion-detection path: the unit's result is ready,
    the wire says it is not yet.  A correct telescopic protocol degrades
    to the long delay and stays functionally correct.
    """

    unit: str
    delay: int
    first_cycle: int = 0
    last_cycle: "int | None" = None
    _high_run: int = field(default=0, repr=False)

    kind = "delayed-completion"

    def __post_init__(self) -> None:
        if self.delay < 1:
            raise SimulationError("completion delay must be >= 1 cycle")

    @property
    def horizon(self) -> int:
        if self.last_cycle is None:
            return _FOREVER
        return self.last_cycle + self.delay

    def on_unit_completions(self, cycle, completions) -> None:
        raw = completions.get(self.unit, False)
        self._high_run = self._high_run + 1 if raw else 0
        if cycle < self.first_cycle:
            return
        if self.last_cycle is not None and cycle > self.last_cycle:
            return
        if raw and self._high_run <= self.delay:
            completions[self.unit] = False

    def describe(self) -> str:
        return (
            f"C_{self.unit} delayed by {self.delay} cycle(s) from cycle "
            f"{self.first_cycle}"
        )

    def target(self) -> "dict[str, object]":
        return {
            "kind": self.kind,
            "unit": self.unit,
            "delay": self.delay,
            "first_cycle": self.first_cycle,
            "last_cycle": self.last_cycle,
        }


@dataclass
class DroppedPulseFault(FaultInjector):
    """Lose the ``occurrence``-th ``CC`` pulse of one completion net.

    The net is the ``CC_<producer_op>`` wire of the Fig. 7 netlist: the
    producer's FSM emits the pulse, but no consumer controller and no
    arrival latch sees it.  Starved consumers never fire — the canonical
    deadlock-class handshake fault.  ``occurrence=None`` cuts the net
    permanently (every pulse is lost).

    A single lost pulse is not always fatal: where the iteration loop
    permits, the producer's wrap-around re-execution emits the *next*
    iteration's pulse and revives the starved consumer at a latency cost —
    the campaign observes this self-healing as a tolerated fault.
    """

    producer_op: str
    occurrence: "int | None" = 1
    _seen: int = field(default=0, repr=False)

    kind = "dropped-pulse"

    def suppress_pulses(self, cycle, emitted) -> frozenset[str]:
        if self.producer_op in emitted:
            if self.occurrence is None:
                return frozenset({self.producer_op})
            self._seen += 1
            if self._seen == self.occurrence:
                return frozenset({self.producer_op})
        return frozenset()

    def describe(self) -> str:
        which = (
            "every pulse"
            if self.occurrence is None
            else f"pulse #{self.occurrence}"
        )
        return f"{which} dropped on completion net CC_{self.producer_op}"

    def target(self) -> "dict[str, object]":
        return {
            "kind": self.kind,
            "producer_op": self.producer_op,
            "occurrence": self.occurrence,
        }


@dataclass
class SpuriousPulseFault(FaultInjector):
    """Pulse the ``CC_<producer_op>`` net at ``cycle`` without completion.

    Every consumer waiting on the net sees a token that was never earned:
    it may start before the producer finished (caught by the datapath's
    premature-start check) or stack a duplicate token on a latched edge
    (an overrun, caught by the strict handshake monitor).
    """

    producer_op: str
    cycle: int

    kind = "spurious-pulse"

    @property
    def horizon(self) -> int:
        return self.cycle

    def inject_pulses(self, cycle) -> frozenset[str]:
        if cycle == self.cycle:
            return frozenset({self.producer_op})
        return frozenset()

    def describe(self) -> str:
        return (
            f"spurious pulse on completion net CC_{self.producer_op} at "
            f"cycle {self.cycle}"
        )

    def target(self) -> "dict[str, object]":
        return {
            "kind": self.kind,
            "producer_op": self.producer_op,
            "cycle": self.cycle,
        }


@dataclass
class StateFlipFault(FaultInjector):
    """Force one controller into a different state at ``cycle`` (SEU).

    ``pick`` deterministically selects the corrupted state among the
    controller's other states, so a seeded campaign covers the state space
    reproducibly.
    """

    controller: str
    cycle: int
    pick: int = 0

    kind = "state-flip"

    @property
    def horizon(self) -> int:
        return self.cycle

    def after_step(self, cycle, system, before, step) -> SystemStep:
        if cycle != self.cycle:
            return step
        keys = system.keys
        if self.controller not in keys:
            raise SimulationError(
                f"state-flip target {self.controller!r} is not a "
                f"controller of this system"
            )
        index = keys.index(self.controller)
        states = list(step.config.states)
        candidates = [
            s
            for s in system.fsm(self.controller).states
            if s != states[index]
        ]
        if not candidates:
            return step
        states[index] = candidates[self.pick % len(candidates)]
        return replace(
            step,
            config=SystemConfig(
                states=tuple(states), flags=step.config.flags
            ),
        )

    def describe(self) -> str:
        return (
            f"state register of controller {self.controller!r} flipped at "
            f"cycle {self.cycle} (pick {self.pick})"
        )

    def target(self) -> "dict[str, object]":
        return {
            "kind": self.kind,
            "controller": self.controller,
            "cycle": self.cycle,
            "pick": self.pick,
        }


@dataclass
class IntermittentCompletion(DelegatingCompletion):
    """Degrade chosen executions of one op to the slowest telescope level.

    Completion-model-level fault: the operand population of ``op`` drifts
    out of the fast group for the execution indices in ``executions``.
    Ground truth and reported completion stay consistent, so a correct
    control unit *must* tolerate it — the fault only costs latency.
    """

    op: str = ""
    executions: Sequence[int] = ()
    _count: "dict[str, int]" = field(default_factory=dict, repr=False)

    kind = "intermittent-slow"

    def sample_level(self, op_name, unit, operands, rng) -> int:
        level = self.inner.sample_level(op_name, unit, operands, rng)
        if op_name == self.op:
            index = self._count.get(op_name, 0)
            self._count[op_name] = index + 1
            if index in self.executions:
                return unit.num_levels - 1
        return level

    def reset(self) -> None:
        self._count.clear()
        super().reset()

    def describe(self) -> str:
        return (
            f"executions {sorted(self.executions)} of {self.op!r} forced "
            f"to the slowest telescope level"
        )


class FaultyControllerSystem:
    """A :class:`ControllerSystem` with fault injectors spliced in.

    Duck-types the simulator-facing surface of the wrapped system and
    applies every injector around each ``transition``: CSG values are
    perturbed before the controllers see them, states and arrival latches
    after.  The wrapper counts cycles itself (one ``transition`` call per
    cycle), so it must not be reused across simulation runs — build a
    fresh one per run.  The wrapped system may be shared: fault-free
    evaluations read its transition table, pulse glitches bypass it.
    """

    def __init__(
        self,
        inner: ControllerSystem,
        injectors: Sequence[FaultInjector],
    ) -> None:
        self._inner = inner
        self._injectors = tuple(injectors)
        self._cycle = 0

    # -- simulator-facing delegation ------------------------------------
    @property
    def keys(self) -> tuple[str, ...]:
        return self._inner.keys

    def fsm(self, key: str):
        return self._inner.fsm(key)

    def all_ops(self) -> frozenset[str]:
        return self._inner.all_ops()

    def dependence_edges(self) -> tuple[tuple[str, str, str], ...]:
        return self._inner.dependence_edges()

    def unit_completion_inputs(self) -> tuple[str, ...]:
        return self._inner.unit_completion_inputs()

    def initial_config(self) -> SystemConfig:
        return self._inner.initial_config()

    def initial_starts(self) -> frozenset[str]:
        return self._inner.initial_starts()

    # -- fault machinery -------------------------------------------------
    @property
    def injectors(self) -> tuple[FaultInjector, ...]:
        return self._injectors

    @property
    def fault_horizon(self) -> int:
        """Last cycle any injector may still act spontaneously."""
        return max((i.horizon for i in self._injectors), default=-1)

    def transition(
        self, config: SystemConfig, unit_completions
    ) -> SystemStep:
        """One faulty clock edge (the simulator calls this once a cycle)."""
        cycle = self._cycle
        completions = dict(unit_completions)
        for injector in self._injectors:
            injector.on_unit_completions(cycle, completions)
        # Fault-free trial evaluation (the step function is pure): which
        # completion nets pulse this cycle, so net-glitch injectors see
        # real traffic.
        trial = self._inner.transition(config, completions)
        emitted = frozenset(op for op, _ in trial.emitters)
        suppress: set[str] = set()
        injected: set[str] = set()
        for injector in self._injectors:
            suppress |= injector.suppress_pulses(cycle, emitted)
            injected |= injector.inject_pulses(cycle)
        if suppress or injected:
            step = self._inner.step(
                config,
                completions,
                suppress_pulses=frozenset(suppress),
                inject_pulses=frozenset(injected),
            )
        else:
            step = trial
        for injector in self._injectors:
            step = injector.after_step(cycle, self._inner, config, step)
        self._cycle += 1
        return step

    def describe(self) -> str:
        lines = [f"faulty controller system ({len(self._injectors)} faults):"]
        lines += [f"  - {i.describe()}" for i in self._injectors]
        return "\n".join(lines)


def inject(
    system: ControllerSystem, *injectors: FaultInjector
) -> FaultyControllerSystem:
    """Wrap ``system`` with the given fault injectors (fresh per run)."""
    if not injectors:
        raise SimulationError("inject() needs at least one fault injector")
    return FaultyControllerSystem(system, injectors)
