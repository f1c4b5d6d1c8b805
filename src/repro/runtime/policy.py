"""Run policies and structured recovery reporting.

A :class:`RunPolicy` tells the supervised pool *how hard to try*: the
per-item timeout, the retry budget, the backoff between attempts, and
what to do once the budget is spent.  A :class:`RunReport` records what
the supervisor (and the self-healing cache and journals) actually had
to do — every recovery is an explicit, structured event, never a silent
code path.

The report is threaded two ways: explicitly (``report=`` keyword on
:func:`~repro.perf.engine.parallel_map`, ``run_campaign`` and
``monte_carlo_latency``) or ambiently via :func:`active_report`, a
context manager the CLI wraps around whole commands so that components
without a report parameter (the synthesis cache, the checkpoint
journal, the experiment drivers) can still account for their
recoveries.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chaos import ChaosConfig

#: last-resort behaviours once an item's retry budget is spent
ON_FAILURE_CHOICES = ("retry", "serial", "skip", "raise")

#: recovery-event kinds a :class:`RunReport` may contain
EVENT_KINDS = (
    "retry",  # a failed item was resubmitted to the pool
    "worker-crash",  # a worker process died (BrokenProcessPool)
    "pool-restart",  # the process pool was rebuilt after a crash
    "isolate",  # a failed multi-item chunk was split for re-execution
    "timeout",  # a chunk exceeded its deadline
    "timeout-degrade",  # a hung chunk was re-executed in-process
    "serial-degrade",  # an exhausted item ran its last attempt in-process
    "skip",  # an exhausted item was dropped (result is None)
    "serial-fallback",  # an unpicklable payload lost its -j speedup
    "parallel-amortization",  # probe-based serial-vs-pool decision
    "batch-engine",  # Monte-Carlo trials ran on the vectorized engine
    "cache-quarantine",  # a corrupt cache entry was moved aside
    "journal-quarantine",  # a corrupt checkpoint shard was moved aside
)


@dataclass(frozen=True)
class RunPolicy:
    """How a supervised map treats slow and failing work items.

    ``timeout_s`` is the per-*item* deadline — a chunk of *k* items gets
    ``k * timeout_s`` before it is declared hung and degraded to
    in-process execution.  ``max_retries`` bounds pool re-submissions of
    one item after a failure; between attempts the supervisor sleeps an
    exponential backoff with a deterministic jitter derived from the
    item index and attempt number (never from the wall clock), so two
    identical runs recover along identical schedules.

    ``on_failure`` picks the last resort once retries are exhausted:

    * ``"retry"`` — retry up to the budget, then raise
      :class:`~repro.errors.SupervisionError` (the default);
    * ``"serial"`` — retry, then run the item once in the supervising
      process (immune to worker crashes, not to real exceptions);
    * ``"skip"`` — retry, then drop the item: its result is ``None``
      and a ``"skip"`` event is recorded;
    * ``"raise"`` — fail fast on the first failure, no retries.

    ``chaos`` optionally injects deterministic worker crashes, failures
    and hangs (see :mod:`repro.runtime.chaos`) — the supervisor's own
    test harness, also used by the CI chaos-smoke drill.
    """

    timeout_s: "float | None" = None
    max_retries: int = 2
    backoff_s: float = 0.05
    on_failure: str = "retry"
    chaos: "ChaosConfig | None" = None

    def __post_init__(self) -> None:
        if self.on_failure not in ON_FAILURE_CHOICES:
            raise SimulationError(
                f"on_failure must be one of {ON_FAILURE_CHOICES}, "
                f"got {self.on_failure!r}"
            )
        if self.max_retries < 0:
            raise SimulationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SimulationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.backoff_s < 0:
            raise SimulationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )

    def retry_budget(self) -> int:
        """Pool attempts granted per item (1 + retries; 1 if fail-fast)."""
        if self.on_failure == "raise":
            return 1
        return 1 + self.max_retries

    def backoff_delay(self, item: int, attempt: int) -> float:
        """Backoff before re-attempting ``item`` (deterministic jitter).

        Exponential in the attempt number, scaled by a jitter in
        ``[0.5, 1.5)`` from the shared SHA-256
        :func:`~repro.perf.engine.deterministic_jitter` scheme —
        independent of process identity and the wall clock, so two
        identical runs recover along identical schedules.
        """
        if self.backoff_s == 0:
            return 0.0
        from ..perf.engine import deterministic_jitter

        jitter = deterministic_jitter("backoff", int(item), int(attempt))
        return self.backoff_s * (2 ** max(attempt - 1, 0)) * jitter

    def chunk_deadline_s(self, chunk_items: int) -> "float | None":
        """Wall-clock budget for one chunk, or ``None`` (no timeout)."""
        if self.timeout_s is None:
            return None
        return self.timeout_s * max(chunk_items, 1)


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action taken during a resilient run."""

    kind: str
    detail: str
    item: "int | None" = None
    attempt: "int | None" = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "item": self.item,
            "attempt": self.attempt,
        }


class RunReport:
    """Structured account of every recovery a resilient run performed.

    Mutable collector: the supervised pool, the self-healing synthesis
    cache and the checkpoint journal all append :class:`RecoveryEvent`
    records to the report in effect.  ``recoveries`` is the total event
    count — zero means the run was entirely clean.
    """

    def __init__(self) -> None:
        self.events: list[RecoveryEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    @property
    def recoveries(self) -> int:
        return len(self.events)

    def record(
        self,
        kind: str,
        detail: str,
        *,
        item: "int | None" = None,
        attempt: "int | None" = None,
    ) -> RecoveryEvent:
        if kind not in EVENT_KINDS:
            raise SimulationError(
                f"unknown recovery event kind {kind!r}; "
                f"choose from {EVENT_KINDS}"
            )
        event = RecoveryEvent(
            kind=kind, detail=detail, item=item, attempt=attempt
        )
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for e in self.events if e.kind == kind)

    def counts(self) -> dict[str, int]:
        """Event counts by kind (only kinds that occurred)."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return {k: out[k] for k in sorted(out)}

    def to_dict(self) -> dict:
        return {
            "recoveries": self.recoveries,
            "counts": self.counts(),
            "events": [e.to_dict() for e in self.events],
        }

    def render(self) -> str:
        if not self.events:
            return "run report: clean (no recoveries)"
        lines = [f"run report: {self.recoveries} recovery event(s)"]
        for kind, count in self.counts().items():
            lines.append(f"  {kind:17s} x{count}")
        for event in self.events:
            where = "" if event.item is None else f" [item {event.item}]"
            lines.append(f"  - {event.kind}{where}: {event.detail}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Ambient report context
# ----------------------------------------------------------------------
_ACTIVE: list[RunReport] = []


@contextmanager
def active_report(
    report: "RunReport | None" = None,
) -> Iterator[RunReport]:
    """Make ``report`` (or a fresh one) the ambient recovery collector.

    Components that take no ``report=`` parameter — the self-healing
    synthesis cache, the checkpoint journal, the experiment drivers —
    record their events into the innermost active report.  Nesting is
    allowed; the innermost wins.
    """
    own = report if report is not None else RunReport()
    _ACTIVE.append(own)
    try:
        yield own
    finally:
        _ACTIVE.pop()


def current_report() -> "RunReport | None":
    """The innermost active report, or ``None`` outside any context."""
    return _ACTIVE[-1] if _ACTIVE else None


def record_event(
    report: "RunReport | None",
    kind: str,
    detail: str,
    *,
    item: "int | None" = None,
    attempt: "int | None" = None,
) -> None:
    """Record into ``report`` if given, else into the ambient report.

    Silently a no-op when neither exists — recovery reporting never
    becomes a reason for a run to fail.
    """
    target = report if report is not None else current_report()
    if target is not None:
        target.record(kind, detail, item=item, attempt=attempt)
