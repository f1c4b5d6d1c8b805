"""Deterministic parallel trial execution: the one map every driver uses.

Every statistical result of the reproduction — Monte-Carlo latency,
throughput sweeps, fault campaigns, the ablation studies — is a map of
one pure function over independent trial indices.  :func:`parallel_map`
executes exactly that shape on a :class:`~concurrent.futures.
ProcessPoolExecutor` while keeping four guarantees:

1. **Byte-identical results.**  Work items carry everything a trial
   needs; no shared RNG or mutable state crosses trials.  Per-trial
   seeds come from :func:`derive_seed`, a stable SHA-256 hash of
   ``(base_seed, trial)`` — independent of ``PYTHONHASHSEED``, process
   identity and platform — so a parallel run returns exactly the list a
   serial loop would.
2. **Chunked submission.**  Items are shipped to workers in contiguous
   chunks (:func:`default_chunksize` items per pickle round-trip),
   amortizing the serialization of the bound function over many trials.
3. **Serial fallback.**  ``workers=1`` or a single item degrade to an
   in-process loop with the same output; an unpicklable
   function/payload (closures, lambdas, open handles) does the same
   but emits a :class:`~repro.errors.SerialFallbackWarning` naming the
   offending payload, so a lost ``-j`` speedup is visible — the engine
   never changes *what* is computed, only *where*.
4. **Checkpoint and supervision (opt-in).**  A
   :class:`~repro.runtime.journal.CheckpointJournal` replays the shards
   an interrupted run persisted and persists each new one as it arrives.
   A :class:`~repro.runtime.policy.RunPolicy` routes the pool through
   :func:`repro.runtime.supervisor.supervised_map`: worker crashes
   restart the pool and re-run only the lost chunks, failing items are
   retried with backoff, hung chunks degrade to in-process execution
   after a timeout, and every recovery lands in a structured
   :class:`~repro.runtime.policy.RunReport`.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from ..errors import SerialFallbackWarning, SimulationError
from ..runtime.journal import CheckpointJournal
from ..runtime.policy import RunPolicy, RunReport, record_event
from ..runtime.supervisor import supervised_map

_T = TypeVar("_T")
_R = TypeVar("_R")

#: placeholder for a result the journal did not hold
_MISSING = object()

#: upper bound on auto-resolved worker counts (a fork bomb guard for
#: machines reporting hundreds of cores)
MAX_AUTO_WORKERS = 16

#: estimated pool spawn + import cost per worker process (seconds) the
#: parallel time saving must beat before a pool is worth starting —
#: measured at ~70–90 ms per spawned CPython 3.12 worker
POOL_STARTUP_S_PER_WORKER = 0.08


def derive_seed_text(text: str) -> int:
    """Stable 63-bit value from the SHA-256 of an arbitrary label.

    The single source of deterministic pseudo-randomness in the
    library: per-trial seeds and retry-backoff jitter both reduce to
    this hash, so every derived schedule is independent of
    ``PYTHONHASHSEED``, process identity, platform and the wall clock.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def derive_seed(base_seed: int, trial: int) -> int:
    """Stable 63-bit per-trial seed from ``(base_seed, trial)``.

    SHA-256 over the decimal rendering keeps the derivation independent
    of the per-process string hash seed, the platform and the Python
    version, so workers in different processes (or on different
    machines) reconstruct exactly the same trial seed.  Unlike
    ``base_seed + trial``, neighbouring trials share no arithmetic
    structure, so the underlying Mersenne streams are decorrelated.
    """
    return derive_seed_text(f"{int(base_seed)}:{int(trial)}")


def deterministic_jitter(tag: str, *parts: object) -> float:
    """Jitter factor in ``[0.5, 1.5)`` from the :func:`derive_seed_text`
    scheme.

    ``tag`` names the consumer (``"backoff"``); ``parts`` identify the
    instance (item index, attempt number).  Two identical runs derive
    identical jitters, so recovery schedules replay deterministically
    in drills.
    """
    label = ":".join([tag, *[str(part) for part in parts]])
    return 0.5 + derive_seed_text(label) / 2**63


def resolve_workers(workers: "int | None") -> int:
    """Normalize a worker-count spec to a concrete positive count.

    ``None`` or ``0`` auto-detects (``os.cpu_count()``, capped at
    :data:`MAX_AUTO_WORKERS`); positive integers pass through; anything
    negative is an error.
    """
    if workers is None or workers == 0:
        return min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
    if workers < 0:
        raise SimulationError(
            f"workers must be >= 0 (0 = auto), got {workers}"
        )
    return int(workers)


def _is_picklable(payload: object) -> bool:
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def default_chunksize(num_items: int, workers: int) -> int:
    """Chunk length balancing pickle amortization against load balance.

    Four chunks per worker keeps the pool busy even when trial costs
    vary (fault campaigns mix cheap detected runs with expensive
    tolerated ones) while bounding the per-item pickling overhead.
    """
    return max(1, -(-num_items // (workers * 4)))


def _callable_name(fn: object) -> str:
    """Compact display name for a work function (partial-aware)."""
    if isinstance(fn, functools.partial):
        return f"functools.partial({_callable_name(fn.func)})"
    return (
        getattr(fn, "__qualname__", None)
        or getattr(fn, "__name__", None)
        or type(fn).__name__
    )


def _warn_serial_fallback(
    fn: object, payload: object, report: "RunReport | None"
) -> None:
    """Make a lost ``-j`` speedup loud: warning + recovery event."""
    detail = (
        f"payload for {_callable_name(fn)} cannot cross a process "
        f"boundary (first item: {type(payload).__name__}); running "
        f"serially in-process — results are unchanged, the requested "
        f"-j speedup is lost"
    )
    warnings.warn(SerialFallbackWarning(detail), stacklevel=4)
    record_event(report, "serial-fallback", detail)


class _TrialFailed(Exception):
    """A trial's own exception, wrapped in the worker that raised it.

    Payloads or results that cannot cross the process boundary surface
    as the same exception types a trial may raise itself; the wrapper
    tells the pool loop which one it got.
    """


def _run_trial(fn: Callable[[_T], _R], item: _T) -> _R:
    try:
        return fn(item)
    except Exception as error:
        raise _TrialFailed(error) from error


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: "int | None" = 1,
    policy: "RunPolicy | None" = None,
    report: "RunReport | None" = None,
    checkpoint: "CheckpointJournal | str | None" = None,
    run_key: str = "",
) -> list[_R]:
    """Order-preserving map of ``fn`` over ``items``.

    With ``workers > 1`` the map runs on a process pool with chunked
    submission; with ``workers=1`` (the default), one item, or an
    unpicklable ``fn``/payload it runs serially in-process (the
    unpicklable case additionally emits a
    :class:`~repro.errors.SerialFallbackWarning`).  Every path returns
    the same list as ``[fn(x) for x in items]`` — callers get
    determinism for free and opt into parallelism per call.

    ``fn`` must be a module-level callable (or a ``functools.partial``
    of one) whose captured arguments pickle; per-item randomness must be
    derived from the item itself (see :func:`derive_seed`).

    Before starting a plain pool the map times the first item
    in-process and stays serial when the estimated remaining work would
    not amortize the pool startup cost (:data:`POOL_STARTUP_S_PER_WORKER`
    per worker) — sub-millisecond trials never pay a pool that makes
    them *slower*.  The decision is recorded in ``report`` as a
    ``parallel-amortization`` event either way, so a silently-serial
    ``-j`` run stays observable.

    ``policy`` (a :class:`~repro.runtime.policy.RunPolicy`) supervises
    the pool instead: per-item timeouts, retries with deterministic
    backoff, pool restarts after worker crashes — see
    :mod:`repro.runtime.supervisor`.  Recovery events are recorded in
    ``report`` (or the ambient
    :func:`~repro.runtime.policy.active_report`).

    ``checkpoint`` (a :class:`~repro.runtime.journal.CheckpointJournal`
    or a directory) journals the map: shards it already holds under
    ``run_key`` and the item position are replayed, only the missing
    items run, and each new result is persisted the moment it reaches
    the calling process — in item order on the plain pool, in
    completion order under a ``policy``.  The keys and bytes do not
    depend on ``workers`` or ``policy``, so serial, parallel and
    supervised runs resume each other's journals.  The journal's
    quarantine events go to ``report`` unless it has its own.
    """
    work: Sequence[_T] = list(items)
    journal = (
        checkpoint
        if checkpoint is None or isinstance(checkpoint, CheckpointJournal)
        else CheckpointJournal(str(checkpoint))
    )
    results: list = [_MISSING] * len(work)
    keys: list[str] = []
    if journal is not None:
        if journal.report is None:
            journal.report = report
        keys = [journal.key(run_key, index) for index in range(len(work))]
        for index, key in enumerate(keys):
            found, value = journal.get(key)
            if found:
                results[index] = value
    missing = [
        index for index, value in enumerate(results) if value is _MISSING
    ]

    def deliver(position: int, value: _R) -> None:
        index = missing[position]
        if journal is not None:
            journal.put(keys[index], value)
        results[index] = value

    if missing:
        _compute(fn, [work[index] for index in missing], workers, policy,
                 report, deliver)
    return results


def _compute(
    fn: Callable[[_T], _R],
    work: Sequence[_T],
    workers: "int | None",
    policy: "RunPolicy | None",
    report: "RunReport | None",
    deliver: Callable[[int, _R], None],
) -> None:
    """Compute ``fn`` over ``work``, handing each result to ``deliver``.

    ``deliver(index, value)`` runs in the calling process once per item
    as its result arrives, so a map that fails or is killed part-way
    keeps every result delivered before.
    """
    count = min(resolve_workers(workers), len(work))
    if count > 1 and not (_is_picklable(fn) and _is_picklable(work[0])):
        _warn_serial_fallback(fn, work[0], report)
        count = 1
    offset = 0
    if count > 1 and policy is None:
        started = time.perf_counter()
        deliver(0, fn(work[0]))
        probe_s = time.perf_counter() - started
        offset = 1
        rest = len(work) - 1
        count = min(count, rest)
        startup_s = POOL_STARTUP_S_PER_WORKER * count
        # the pool saves at most the non-serial share of the remaining
        # serial time; it must beat the startup cost to be worth it
        saving_s = probe_s * rest * (1.0 - 1.0 / count)
        verdict = (
            f"save ~{saving_s * 1e3:.0f} ms across {count} workers, "
            f"under the ~{startup_s * 1e3:.0f} ms pool startup; "
            f"running serially (results unchanged)"
            if saving_s < startup_s
            else f"amortize the ~{startup_s * 1e3:.0f} ms pool startup; "
            f"running on {count} workers"
        )
        record_event(
            report,
            "parallel-amortization",
            f"{rest + 1} items at ~{probe_s * 1e3:.2f} ms each {verdict}",
        )
        if saving_s < startup_s:
            count = 1
    if count <= 1:
        for index in range(offset, len(work)):
            deliver(index, fn(work[index]))
        return
    chunksize = default_chunksize(len(work) - offset, count)
    if policy is not None:
        supervised_map(
            fn, work, workers=count, chunksize=chunksize, policy=policy,
            report=report, on_result=deliver,
        )
        return
    done = offset
    trial = functools.partial(_run_trial, fn)
    try:
        with ProcessPoolExecutor(max_workers=count) as pool:
            try:
                # consumed lazily, so each result is delivered as it
                # arrives and a failure mid-pool keeps what came before
                for value in pool.map(
                    trial, work[offset:], chunksize=chunksize
                ):
                    deliver(done, value)
                    done += 1
            except _TrialFailed:
                pool.shutdown(cancel_futures=True)
                raise
    except _TrialFailed as failed:
        # the trial's own exception, with the worker traceback as cause
        raise failed.args[0] from failed.__cause__
    except (pickle.PicklingError, AttributeError, TypeError):
        # A payload that *claimed* picklability can still fail inside
        # the pool (a later item, or a result that does not pickle);
        # fall back rather than lose the run, for the items not yet
        # returned.
        _warn_serial_fallback(fn, work[offset], report)
        for index in range(done, len(work)):
            deliver(index, fn(work[index]))
