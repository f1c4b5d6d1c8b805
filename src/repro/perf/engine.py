"""Deterministic parallel trial execution.

Every statistical result of the reproduction — Monte-Carlo latency,
throughput sweeps, fault campaigns, the ablation studies — is a map of
one pure function over independent trial indices.  :func:`parallel_map`
executes exactly that shape on a :class:`~concurrent.futures.
ProcessPoolExecutor` while keeping three guarantees:

1. **Byte-identical results.**  Work items carry everything a trial
   needs; no shared RNG or mutable state crosses trials.  Per-trial
   seeds come from :func:`derive_seed`, a stable SHA-256 hash of
   ``(base_seed, trial)`` — independent of ``PYTHONHASHSEED``, process
   identity and platform — so a parallel run returns exactly the list a
   serial loop would.
2. **Chunked submission.**  Items are shipped to workers in contiguous
   chunks (``chunksize`` items per pickle round-trip), amortizing the
   serialization of the bound function over many trials.
3. **Serial fallback.**  ``workers=1`` or a single item degrade to an
   in-process loop with the same output; an unpicklable
   function/payload (closures, lambdas, open handles) does the same
   but emits a :class:`~repro.errors.SerialFallbackWarning` naming the
   offending payload, so a lost ``-j`` speedup is visible — the engine
   never changes *what* is computed, only *where*.
4. **Supervision (opt-in).**  A
   :class:`~repro.runtime.policy.RunPolicy` routes the pool through
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
from typing import TYPE_CHECKING, TypeVar

from ..errors import SerialFallbackWarning, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.policy import RunPolicy, RunReport

_T = TypeVar("_T")
_R = TypeVar("_R")

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
    from ..runtime.policy import record_event

    detail = (
        f"payload for {_callable_name(fn)} cannot cross a process "
        f"boundary (first item: {type(payload).__name__}); running "
        f"serially in-process — results are unchanged, the requested "
        f"-j speedup is lost"
    )
    warnings.warn(SerialFallbackWarning(detail), stacklevel=3)
    record_event(report, "serial-fallback", detail)


def _serial_map(
    fn: Callable[[_T], _R],
    work: Sequence[_T],
    on_result: "Callable[[int, _R], None] | None",
    start: int = 0,
) -> list[_R]:
    out: list[_R] = []
    for index, item in enumerate(work, start=start):
        value = fn(item)
        if on_result is not None:
            on_result(index, value)
        out.append(value)
    return out


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
    chunksize: "int | None" = None,
    policy: "RunPolicy | None" = None,
    report: "RunReport | None" = None,
    on_result: "Callable[[int, _R], None] | None" = None,
    amortize: bool = True,
) -> list[_R]:
    """Order-preserving map of ``fn`` over ``items``.

    With ``workers > 1`` the map runs on a process pool with chunked
    submission; with ``workers=1`` (the default), one item, or an
    unpicklable ``fn``/payload it runs serially in-process (the
    unpicklable case additionally emits a
    :class:`~repro.errors.SerialFallbackWarning`).  Both paths return
    the same list as ``[fn(x) for x in items]`` — callers get
    determinism for free and opt into parallelism per call.

    ``policy`` (a :class:`~repro.runtime.policy.RunPolicy`) supervises
    the pool: per-item timeouts, retries with deterministic backoff,
    pool restarts after worker crashes — see
    :mod:`repro.runtime.supervisor`.  Recovery events are recorded in
    ``report`` (or the ambient
    :func:`~repro.runtime.policy.active_report`).  ``on_result(index,
    value)`` fires in the calling process once per completed item as
    its result arrives — in item order, or in completion order under a
    ``policy`` — so checkpoint journals persist shards through it while
    the map still runs.

    ``fn`` must be a module-level callable (or a ``functools.partial``
    of one) whose captured arguments pickle; per-item randomness must be
    derived from the item itself (see :func:`derive_seed`).

    ``amortize=True`` (the default, skipped under a ``policy``) times
    the first item in-process and keeps the whole map serial when the
    estimated remaining work would not amortize the pool startup cost
    (:data:`POOL_STARTUP_S_PER_WORKER` per worker) — sub-millisecond
    trials no longer pay a pool that makes them *slower*.  The decision
    is recorded in ``report`` as a ``parallel-amortization`` event
    either way, so a silently-serial ``-j`` run stays observable.
    """
    from ..runtime.policy import record_event

    work: Sequence[_T] = list(items)
    if not work:
        return []
    count = min(resolve_workers(workers), len(work))
    if count > 1 and not (_is_picklable(fn) and _is_picklable(work[0])):
        _warn_serial_fallback(fn, work[0], report)
        count = 1
    if count <= 1:
        return _serial_map(fn, work, on_result)
    prefix: list[_R] = []
    offset = 0
    if amortize and policy is None:
        started = time.perf_counter()
        first = fn(work[0])
        probe_s = time.perf_counter() - started
        if on_result is not None:
            on_result(0, first)
        prefix = [first]
        offset = 1
        work = work[1:]
        count = min(count, len(work))
        startup_s = POOL_STARTUP_S_PER_WORKER * count
        # the pool saves at most the non-serial share of the remaining
        # serial time; it must beat the startup cost to be worth it
        saving_s = probe_s * len(work) * (1.0 - 1.0 / count)
        if saving_s < startup_s:
            record_event(
                report,
                "parallel-amortization",
                f"{len(work) + 1} items at ~{probe_s * 1e3:.2f} ms each "
                f"save ~{saving_s * 1e3:.0f} ms across {count} workers, "
                f"under the ~{startup_s * 1e3:.0f} ms pool startup; "
                f"running serially (results unchanged)",
            )
            return prefix + _serial_map(fn, work, on_result, start=offset)
        record_event(
            report,
            "parallel-amortization",
            f"{len(work) + 1} items at ~{probe_s * 1e3:.2f} ms each "
            f"amortize the ~{startup_s * 1e3:.0f} ms pool startup; "
            f"running on {count} workers",
        )
    if chunksize is None:
        chunksize = default_chunksize(len(work), count)
    if policy is not None:
        from ..runtime.supervisor import supervised_map

        return supervised_map(
            fn,
            work,
            workers=count,
            chunksize=chunksize,
            policy=policy,
            report=report,
            on_result=on_result,
        )
    results: list[_R] = []
    trial = functools.partial(_run_trial, fn)
    try:
        with ProcessPoolExecutor(max_workers=count) as pool:
            try:
                # consumed lazily, so on_result sees each result as it
                # arrives and a failure mid-pool keeps what came before
                for value in pool.map(trial, work, chunksize=chunksize):
                    if on_result is not None:
                        on_result(len(results) + offset, value)
                    results.append(value)
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
        _warn_serial_fallback(fn, work[0], report)
        done = len(results)
        return prefix + results + _serial_map(
            fn, work[done:], on_result, start=offset + done
        )
    return prefix + results
