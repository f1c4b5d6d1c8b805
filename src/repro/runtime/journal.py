"""Crash-safe, content-addressed checkpoint journal for long drivers.

A long campaign is a map of a pure function over trial indices; losing
hours of completed trials to one ``KeyboardInterrupt`` is pure waste.
The journal persists each completed *shard* (one trial's result) the
moment it exists:

* **content-addressed** — a shard's file name is the SHA-256 of the
  driver's *run key* (everything that determines the result: design
  fingerprint, trial counts, seeds, probabilities) plus the shard id,
  so journals of different runs coexist in one directory and a resumed
  run can only ever replay its own shards;
* **crash-safe** — every write goes to a temporary file in the same
  directory, is flushed and ``fsync``'d, then published with the
  atomic ``os.replace``; a shard is either fully present or absent,
  never torn;
* **self-verifying** — the payload (pickle of the shard value) is
  prefixed with its own SHA-256; a truncated or bit-rotten shard fails
  verification, is quarantined (renamed ``*.corrupt``) and recomputed
  instead of poisoning the resumed run.

:func:`checkpointed_map` is the driver-facing wrapper: replay the
shards the journal already has, compute only the missing ones (through
:func:`~repro.perf.engine.parallel_map`, so supervision and
parallelism compose), and persist each new result as it arrives.  A
resumed run therefore produces output byte-identical to an
uninterrupted one.

Shards are pickles: the journal is a private scratch format for
resuming *your own* runs from a directory you control, not an exchange
format — never point it at untrusted data.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from ..errors import CheckpointError, CheckpointInterrupted
from .policy import RunPolicy, RunReport, record_event

_T = TypeVar("_T")
_R = TypeVar("_R")

#: suffix of journal shard files
SHARD_SUFFIX = ".shard.pkl"

#: placeholder for a shard the journal does not have
_MISSING = object()


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp + fsync + rename).

    The temporary file lives in the destination directory so the final
    ``os.replace`` never crosses a filesystem boundary; a crash at any
    point leaves either the old file or the new file, never a torn mix.
    """
    directory = os.path.dirname(path) or "."
    handle, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".write"
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(payload)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Atomic UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode())


class CheckpointJournal:
    """Directory of checksummed, atomically written result shards.

    ``max_new_shards`` is the deterministic interruption hook: after
    persisting that many *new* shards the journal raises
    :class:`~repro.errors.CheckpointInterrupted`, leaving the directory
    exactly as a real mid-run kill would — tests and chaos drills
    resume from it with a fresh journal over the same path.

    Counters: ``new_shards`` (persisted this run), ``replayed``
    (served from disk this run), ``quarantined`` (corrupt shards moved
    aside this run).

    ``report`` optionally pins the :class:`~repro.runtime.policy.
    RunReport` that receives quarantine events; without it they land
    in the ambient :func:`~repro.runtime.policy.active_report`, and
    are silently dropped only when neither exists.
    """

    def __init__(
        self,
        path: str,
        *,
        max_new_shards: "int | None" = None,
        report: "RunReport | None" = None,
    ) -> None:
        self.path = str(path)
        self.max_new_shards = max_new_shards
        self.report = report
        self.new_shards = 0
        self.replayed = 0
        self.quarantined = 0
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory "
                f"{self.path!r}: {exc}"
            ) from exc

    @staticmethod
    def key(run_key: str, shard: object) -> str:
        """Content address of one shard of one run."""
        return hashlib.sha256(
            f"{run_key}#{shard}".encode()
        ).hexdigest()

    def shard_file(self, key: str) -> str:
        return os.path.join(self.path, f"{key}{SHARD_SUFFIX}")

    def _quarantine(self, key: str, reason: str) -> None:
        file_path = self.shard_file(key)
        try:
            os.replace(file_path, file_path + ".corrupt")
        except OSError:  # pragma: no cover - racing cleanup
            pass
        self.quarantined += 1
        record_event(
            self.report,
            "journal-quarantine",
            f"shard {key[:12]}… in {self.path} {reason}; it will be "
            f"recomputed",
        )

    def get(self, key: str) -> "tuple[bool, object]":
        """``(True, value)`` for a verified shard, else ``(False, None)``.

        A shard that exists but fails its checksum or does not unpickle
        is quarantined and reported as missing — the caller recomputes
        it, and the journal heals itself.
        """
        try:
            with open(self.shard_file(key), "rb") as handle:
                blob = handle.read()
        except (FileNotFoundError, OSError):
            return False, None
        newline = blob.find(b"\n")
        if newline != 64:
            self._quarantine(key, "has a malformed header")
            return False, None
        digest, payload = blob[:newline], blob[newline + 1:]
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            self._quarantine(key, "failed its payload checksum")
            return False, None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._quarantine(key, "failed to unpickle")
            return False, None
        self.replayed += 1
        return True, value

    def put(self, key: str, value: object) -> None:
        """Persist one shard atomically; honours ``max_new_shards``."""
        if (
            self.max_new_shards is not None
            and self.new_shards >= self.max_new_shards
        ):
            raise CheckpointInterrupted(
                f"checkpoint budget of {self.max_new_shards} new "
                f"shard(s) reached",
                shards_written=self.new_shards,
            )
        payload = pickle.dumps(value, protocol=4)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        atomic_write_bytes(self.shard_file(key), digest + b"\n" + payload)
        self.new_shards += 1

    def corrupt_files(self) -> list[str]:
        """Quarantined (``*.corrupt``) shard files in this journal."""
        try:
            entries = os.listdir(self.path)
        except OSError:
            return []
        return sorted(
            os.path.join(self.path, name)
            for name in entries
            if name.endswith(".corrupt")
        )


def resolve_journal(
    checkpoint: "CheckpointJournal | str | None",
) -> "CheckpointJournal | None":
    """Accept a journal, a directory path, or ``None``."""
    if checkpoint is None or isinstance(checkpoint, CheckpointJournal):
        return checkpoint
    return CheckpointJournal(str(checkpoint))


def checkpointed_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    run_key: str,
    checkpoint: "CheckpointJournal | str | None",
    workers: "int | None" = 1,
    chunksize: "int | None" = None,
    policy: "RunPolicy | None" = None,
    report: "RunReport | None" = None,
) -> list:
    """:func:`~repro.perf.engine.parallel_map` through a journal.

    Shards already in the journal (keyed by ``run_key`` and item
    position) are replayed; only the missing items are computed, and
    each new result is persisted the moment it completes — out of
    order under parallelism, which is safe because the shard id is the
    item's position.  With ``checkpoint=None`` this is exactly
    ``parallel_map``.  The keys and bytes do not depend on
    ``workers`` or ``policy``, so serial, parallel and supervised runs
    resume each other's checkpoint directories.
    """
    from ..perf.engine import parallel_map

    journal = resolve_journal(checkpoint)
    if journal is not None and journal.report is None:
        journal.report = report
    work: Sequence[_T] = list(items)
    if journal is None:
        return parallel_map(
            fn, work, workers=workers, chunksize=chunksize,
            policy=policy, report=report,
        )
    keys = [journal.key(run_key, index) for index in range(len(work))]
    results: list = []
    missing: list[int] = []
    for index, key in enumerate(keys):
        found, value = journal.get(key)
        results.append(value if found else _MISSING)
        if not found:
            missing.append(index)
    if missing:

        def persist(position: int, value) -> None:
            index = missing[position]
            journal.put(keys[index], value)
            results[index] = value

        parallel_map(
            fn,
            [work[index] for index in missing],
            workers=workers,
            chunksize=chunksize,
            policy=policy,
            report=report,
            on_result=persist,
        )
    return results
