"""Execution-resilience layer: supervised pools, journals, run reports.

``repro.runtime`` sits beneath :mod:`repro.perf` and makes the slow and
failing cases of long campaigns *safe* without changing what the fast
case computes:

* :class:`~repro.runtime.policy.RunPolicy` — per-item timeouts, retry
  budgets with exponential backoff and deterministic jitter, and a
  choice of last-resort behaviours, interpreted by the supervised
  process pool in :mod:`repro.runtime.supervisor`;
* :class:`~repro.runtime.policy.RunReport` — the structured record of
  every recovery event (worker crashes, pool restarts, retries,
  timeout degradations, quarantined cache entries) a resilient run
  performed on the way to its byte-identical result;
* :class:`~repro.runtime.journal.CheckpointJournal` — a crash-safe,
  content-addressed shard journal (one checksummed, ``fsync``'d
  record per shard in a per-directory append-only log) giving long
  drivers checkpoint / resume (``repro resume``) with output
  byte-identical to an uninterrupted run;
* :class:`~repro.runtime.chaos.ChaosConfig` — deterministic worker
  crash/failure/hang injection for exercising the supervisor itself.
"""

from .chaos import ChaosConfig, ChaosFailure
from .journal import CheckpointJournal, checkpointed_map
from .policy import (
    RecoveryEvent,
    RunPolicy,
    RunReport,
    active_report,
    current_report,
)
from .supervisor import supervised_map

__all__ = [
    "ChaosConfig",
    "ChaosFailure",
    "CheckpointJournal",
    "checkpointed_map",
    "RecoveryEvent",
    "RunPolicy",
    "RunReport",
    "active_report",
    "current_report",
    "supervised_map",
]
