"""Supervised process pools: crash-, hang- and failure-tolerant maps.

:func:`supervised_map` is the pool loop
:func:`repro.perf.engine.parallel_map` runs when it is given a
:class:`~repro.runtime.policy.RunPolicy`; it computes the same
order-preserving, pure map, but under that policy:

* **Worker crashes** (``BrokenProcessPoolError``) restart the pool and
  re-run only the lost chunks.  A crash inside a multi-item chunk is
  unattributable, so the survivors are re-submitted as single-item
  chunks; a crashing single item consumes one unit of its retry
  budget per attempt.
* **Failures** are caught *per item inside the worker* (the chunk
  runner returns per-item outcomes), so one bad trial never discards
  its chunk siblings.  Failed items are retried with exponential
  backoff and deterministic jitter, then handled per
  ``policy.on_failure``.
* **Hangs** are bounded by the per-item timeout: an expired chunk is
  abandoned and degraded to in-process execution (chaos injection is
  worker-only, so the degraded run is clean).  When hung workers
  exhaust the pool, the pool is rebuilt.

Every recovery is recorded as a structured event in the
:class:`~repro.runtime.policy.RunReport` in effect.  Because work items
are pure functions of their payload, none of this changes the result:
the returned list is byte-identical to ``[fn(x) for x in items]``
(modulo ``None`` holes under ``on_failure="skip"``).
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TypeVar

from ..errors import SupervisionError
from .chaos import ChaosConfig, chaos_apply
from .policy import RunPolicy, RunReport, current_report

_T = TypeVar("_T")
_R = TypeVar("_R")

#: placeholder for a not-yet-computed result slot
_PENDING = object()

#: idle poll interval of the supervision loop (seconds)
_TICK_S = 0.5


@dataclass(frozen=True)
class _Chunk:
    """A contiguous run of work items with their global indices."""

    indices: tuple[int, ...]
    items: tuple


def _run_chunk(
    fn: Callable, indices: tuple[int, ...], items: tuple,
    chaos: "ChaosConfig | None",
) -> list[tuple]:
    """Worker-side chunk runner returning per-item outcomes.

    Failures are converted to ``("err", detail)`` records instead of
    propagating, so one bad item cannot discard the results of its
    chunk siblings, and the supervisor knows exactly which item failed
    without an isolation round-trip.
    """
    outcomes: list[tuple] = []
    for index, item in zip(indices, items):
        try:
            chaos_apply(chaos, index)
            outcomes.append(("ok", fn(item)))
        except Exception as exc:
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            outcomes.append(("err", detail))
    return outcomes


def _next_wait(pending: dict) -> float:
    """Wait budget until the nearest chunk deadline (clamped)."""
    deadlines = [dl for (_, dl) in pending.values() if dl is not None]
    if not deadlines:
        return _TICK_S
    return min(max(min(deadlines) - time.monotonic(), 0.01), _TICK_S)


def supervised_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    workers: int,
    chunksize: int,
    policy: RunPolicy,
    report: "RunReport | None" = None,
    on_result: "Callable[[int, _R], None]",
) -> list:
    """Order-preserving map of ``fn`` over ``items`` under supervision.

    Behaves like ``[fn(x) for x in items]`` executed on a process pool
    of ``workers``, except that worker crashes, per-item failures and
    hung chunks are recovered per ``policy`` instead of aborting the
    run.  ``on_result(index, value)`` is invoked in the supervising
    process as each item completes (in completion order, each index
    exactly once) — the hook through which ``parallel_map`` journals
    each result as it arrives.

    Raises :class:`~repro.errors.SupervisionError` when an item
    exhausts its budget under ``on_failure="retry"``/``"raise"``.
    """
    report = report if report is not None else current_report()
    if report is None:
        report = RunReport()  # discarded collector; recording never fails

    work = list(items)
    n = len(work)
    results: list = [_PENDING] * n
    attempts = [0] * n
    budget = policy.retry_budget()
    queue: deque[_Chunk] = deque(
        _Chunk(
            indices=tuple(range(low, min(low + chunksize, n))),
            items=tuple(work[low:low + chunksize]),
        )
        for low in range(0, n, chunksize)
    )
    pending: "dict[Future, tuple[_Chunk, float | None]]" = {}
    pool = ProcessPoolExecutor(max_workers=workers)
    abandoned = 0

    def store(index: int, value) -> None:
        # idempotent: duplicate deliveries (e.g. a chunk re-run after a
        # pool restart racing its abandoned twin) are dropped
        if results[index] is not _PENDING:
            return
        results[index] = value
        on_result(index, value)

    def single(index: int) -> _Chunk:
        return _Chunk(indices=(index,), items=(work[index],))

    def requeue_pending_of(chunk: _Chunk) -> None:
        for index in chunk.indices:
            if results[index] is _PENDING:
                queue.append(single(index))

    def restart_pool(why: str) -> None:
        nonlocal pool, abandoned
        report.record("pool-restart", why)
        for dead_future, (chunk, _) in pending.items():
            dead_future.cancel()
            requeue_pending_of(chunk)
        pending.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=workers)
        abandoned = 0

    def exhaust(index: int, detail: str) -> None:
        if policy.on_failure == "skip":
            report.record(
                "skip",
                f"dropped after {attempts[index]} attempt(s): {detail}",
                item=index,
                attempt=attempts[index],
            )
            store(index, None)
            return
        if policy.on_failure == "serial":
            report.record(
                "serial-degrade",
                f"final in-process attempt after "
                f"{attempts[index]} pool attempt(s): {detail}",
                item=index,
                attempt=attempts[index],
            )
            store(index, fn(work[index]))
            return
        raise SupervisionError(
            f"work item {index} failed after {attempts[index]} "
            f"attempt(s): {detail}",
            item=index,
            attempts=attempts[index],
        )

    def handle_failure(index: int, detail: str) -> None:
        attempts[index] += 1
        if attempts[index] >= budget:
            exhaust(index, detail)
            return
        report.record(
            "retry", detail, item=index, attempt=attempts[index]
        )
        time.sleep(policy.backoff_delay(index, attempts[index]))
        queue.append(single(index))

    def submit_ready() -> None:
        while queue:
            chunk = queue[0]
            try:
                future = pool.submit(
                    _run_chunk, fn, chunk.indices, chunk.items,
                    policy.chaos,
                )
            except BrokenExecutor:
                restart_pool("pool broken at submission; rebuilt")
                continue
            queue.popleft()
            deadline = policy.chunk_deadline_s(len(chunk.indices))
            pending[future] = (
                chunk,
                None if deadline is None
                else time.monotonic() + deadline,
            )

    try:
        while queue or pending or any(
            r is _PENDING for r in results
        ):
            submit_ready()
            if not pending:
                if queue:
                    continue
                # no pending work, no queue, but holes remain: every
                # path above either stores, requeues or raises, so this
                # is unreachable — guard against silent data loss anyway
                raise SupervisionError(
                    "supervised map lost work items"
                )  # pragma: no cover
            done, _ = wait(
                set(pending),
                timeout=_next_wait(pending),
                return_when=FIRST_COMPLETED,
            )
            broken = False
            for future in done:
                chunk, _deadline = pending.pop(future)
                try:
                    outcomes = future.result()
                except BrokenExecutor:
                    broken = True
                    report.record(
                        "worker-crash",
                        "worker process died running items "
                        f"{list(chunk.indices)}",
                    )
                    if len(chunk.indices) == 1:
                        handle_failure(
                            chunk.indices[0], "worker process crashed"
                        )
                    else:
                        # the culprit is unknown inside a chunk:
                        # isolate by re-running survivors one at a time
                        report.record(
                            "isolate",
                            f"re-running items {list(chunk.indices)} "
                            "individually to find the crashing one",
                        )
                        requeue_pending_of(chunk)
                except Exception as exc:
                    # chunk-level transport failure (result failed to
                    # pickle, ...): the workers are fine, the payload
                    # is not — degrade this chunk to in-process
                    report.record(
                        "serial-degrade",
                        f"chunk {list(chunk.indices)} failed in "
                        f"transit ({exc!r}); re-ran in-process",
                    )
                    for index in chunk.indices:
                        if results[index] is _PENDING:
                            store(index, fn(work[index]))
                else:
                    for index, outcome in zip(chunk.indices, outcomes):
                        if outcome[0] == "ok":
                            store(index, outcome[1])
                        else:
                            handle_failure(index, outcome[1])
            if broken:
                restart_pool(
                    "process pool broken by a worker crash; "
                    "re-running lost chunks"
                )
                continue
            now = time.monotonic()
            expired = [
                future
                for future, (_, deadline) in pending.items()
                if deadline is not None and now >= deadline
            ]
            for future in expired:
                chunk, _deadline = pending.pop(future)
                future.cancel()
                abandoned += 1
                report.record(
                    "timeout",
                    f"chunk {list(chunk.indices)} exceeded "
                    f"{policy.chunk_deadline_s(len(chunk.indices)):.3f}s",
                )
                report.record(
                    "timeout-degrade",
                    f"re-running items {list(chunk.indices)} "
                    "in-process",
                )
                for index in chunk.indices:
                    if results[index] is _PENDING:
                        store(index, fn(work[index]))
            if abandoned >= workers and (pending or queue):
                restart_pool(
                    "hung workers exhausted the pool; rebuilt"
                )
    finally:
        # join a pool that holds nothing abandoned, so no worker outlives
        # the map; one still running a hung chunk is left to finish
        pool.shutdown(wait=not (abandoned or pending), cancel_futures=True)
    return results
