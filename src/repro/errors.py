"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A dataflow graph is malformed (cycles, dangling references, ...)."""


class SchedulingError(ReproError):
    """A schedule could not be constructed under the given constraints."""


class BindingError(ReproError):
    """Operations could not be bound to the allocated arithmetic units."""


class AllocationError(ReproError):
    """A resource allocation is inconsistent with the dataflow graph."""


class FSMError(ReproError):
    """A finite state machine is malformed or could not be derived."""


class SimulationError(ReproError):
    """The cycle-accurate simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The control unit stopped making progress before finishing.

    Raised by the simulator's watchdog either when ``max_cycles`` is
    exceeded or when the system is provably quiescent (no unit executing,
    no state or latch changed, work still pending).  Beyond the human
    message it carries machine-readable context so fault campaigns and
    debuggers can name the stuck component directly.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: int = 0,
        max_cycles: "int | None" = None,
        pending_ops: "tuple[str, ...]" = (),
        executing: "dict[str, str] | None" = None,
        controller_states: "dict[str, str] | None" = None,
        starved_edges: "tuple[tuple[str, str, str], ...]" = (),
    ) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.max_cycles = max_cycles
        self.pending_ops = tuple(pending_ops)
        self.executing = dict(executing or {})
        self.controller_states = dict(controller_states or {})
        self.starved_edges = tuple(starved_edges)

    def context(self) -> "dict[str, object]":
        """JSON-serializable snapshot of the stuck configuration."""
        return {
            "cycle": self.cycle,
            "max_cycles": self.max_cycles,
            "pending_ops": list(self.pending_ops),
            "executing": dict(self.executing),
            "controller_states": dict(self.controller_states),
            "starved_edges": [list(edge) for edge in self.starved_edges],
        }


class ProtocolError(SimulationError):
    """A controller violated the completion-handshake protocol.

    Covers premature starts (token consumed before the producer finished),
    double occupancy of a unit, completion of a non-executing operation,
    completion before the sampled telescope delay elapsed, and — under the
    strict handshake monitor — token overruns on the 1-bit arrival latches.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "protocol",
        cycle: "int | None" = None,
        op: "str | None" = None,
        unit: "str | None" = None,
        edges: "tuple[tuple[str, str, str], ...]" = (),
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.cycle = cycle
        self.op = op
        self.unit = unit
        self.edges = tuple(edges)

    def context(self) -> "dict[str, object]":
        """JSON-serializable description of the violation."""
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "op": self.op,
            "unit": self.unit,
            "edges": [list(e) for e in self.edges],
        }


class ExactAnalysisError(SimulationError):
    """Exact latency analysis exceeded its feasibility bounds.

    Raised by :mod:`repro.analysis.exact_engine` when the correlated
    frontier of the execution graph is wider than ``cut_limit`` (the DP
    state space would explode) or the conditioned state count passes
    ``state_limit`` — and by :func:`~repro.analysis.latency.expected_latency`
    when exact analysis is infeasible and the caller forbade the
    Monte-Carlo fallback with ``allow_monte_carlo=False``.
    """

    def __init__(
        self,
        message: str,
        *,
        cut_width: "int | None" = None,
        limit: "int | None" = None,
        reason: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.cut_width = cut_width
        self.limit = limit
        self.reason = reason

    def context(self) -> "dict[str, object]":
        """JSON-serializable description of the infeasibility."""
        return {
            "cut_width": self.cut_width,
            "limit": self.limit,
            "reason": self.reason,
        }


class ModelCheckBudgetExceeded(SimulationError):
    """Explicit-state model checking exceeded its exploration budget.

    Raised by :mod:`repro.verify.modelcheck` when the reachable state
    count passes ``max_states`` or the BFS frontier passes
    ``max_frontier`` — the structured escape hatch that lets callers
    distinguish "the design is too large for this budget" from "the
    design has a violation".
    """

    def __init__(
        self,
        message: str,
        *,
        states: "int | None" = None,
        frontier: "int | None" = None,
        limit: "int | None" = None,
        reason: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.states = states
        self.frontier = frontier
        self.limit = limit
        self.reason = reason

    def context(self) -> "dict[str, object]":
        """JSON-serializable description of the exhausted budget."""
        return {
            "states": self.states,
            "frontier": self.frontier,
            "limit": self.limit,
            "reason": self.reason,
        }


class VerificationError(SimulationError):
    """End-to-end datapath verification found wrong result values.

    This is the *oracle* failure: the run completed without any runtime
    monitor firing, yet an operation's value disagrees with the reference
    evaluation of the dataflow graph — i.e. silent corruption.
    """

    def __init__(
        self,
        message: str,
        *,
        op: "str | None" = None,
        iteration: "int | None" = None,
        actual: "int | None" = None,
        expected: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.iteration = iteration
        self.actual = actual
        self.expected = expected


class InjectedFaultEscape(SimulationError):
    """A deliberately injected fault produced silent corruption.

    Raised by the fault-campaign runner in strict mode when a faulty run
    finished without any runtime monitor firing but the datapath oracle
    found wrong values — the one outcome a robust control scheme must
    never allow.
    """

    def __init__(
        self,
        message: str,
        *,
        fault: "str | None" = None,
        benchmark: "str | None" = None,
        trial: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.fault = fault
        self.benchmark = benchmark
        self.trial = trial


class LogicError(ReproError):
    """A boolean-logic object (cover, cube, function) is malformed."""


class SupervisionError(ReproError):
    """A supervised work item exhausted its recovery budget.

    Raised by :func:`repro.runtime.supervisor.supervised_map` when an
    item keeps failing after ``max_retries`` attempts under a
    :class:`~repro.runtime.policy.RunPolicy` whose ``on_failure`` is
    ``"retry"`` or ``"raise"``.  Carries the item index and attempt
    count so a campaign log can name the poison trial directly.
    """

    def __init__(
        self,
        message: str,
        *,
        item: "int | None" = None,
        attempts: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.item = item
        self.attempts = attempts


class CheckpointError(ReproError):
    """A checkpoint journal is unusable (unwritable directory, ...)."""


class CheckpointInterrupted(CheckpointError):
    """A run stopped after reaching its new-shard budget.

    The deterministic stand-in for ``kill -9`` in tests and chaos
    drills: a :class:`~repro.runtime.journal.CheckpointJournal` built
    with ``max_new_shards=N`` raises this after persisting ``N`` new
    shards, leaving the journal exactly as a real interruption would.
    """

    def __init__(
        self, message: str, *, shards_written: int = 0
    ) -> None:
        super().__init__(message)
        self.shards_written = shards_written


class PipelineError(ReproError):
    """A synthesis pipeline is misconfigured or was driven incorrectly."""


class SchedulingFallbackWarning(UserWarning):
    """A scheduler silently degraded to a weaker strategy.

    Emitted (never raised) when the exact branch-and-bound scheduler
    exceeds its search budget and the flow falls back to list scheduling;
    the run manifest records the same event as a structured diagnostic.
    """


class SerialFallbackWarning(UserWarning):
    """A parallel map silently degraded to the serial in-process loop.

    Emitted (never raised) when ``workers > 1`` was requested but the
    function or its payload cannot cross a process boundary (closures,
    lambdas, open handles), so the requested ``-j`` speedup was lost.
    Results are unchanged — only wall-clock time is affected.  The
    deliberate ``workers=1`` path never warns.
    """
