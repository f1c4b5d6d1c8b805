"""Crash-safe, content-addressed checkpoint journal for long drivers.

A long campaign is a map of a pure function over trial indices; losing
hours of completed trials to one ``KeyboardInterrupt`` is pure waste.
The journal persists each completed *shard* (one trial's result) the
moment it exists, as one record of an append-only log, ``journal.log``,
in the checkpoint directory:

* **content-addressed** — a record's key is the SHA-256 of the
  driver's *run key* (everything that determines the result: design
  fingerprint, trial counts, seeds, probabilities) plus the shard id,
  so journals of different runs share one log and a resumed run can
  only ever replay its own shards;
* **durable per record** — :meth:`CheckpointJournal.put` appends one
  line, ``<key> <sha256(payload)> <base64(payload)>`` and a newline,
  with a single ``os.write`` on an ``O_APPEND`` descriptor, and calls
  ``os.fsync`` before returning, so a kill at any instant loses at most
  the record being written;
* **self-verifying** — the payload (pickle of the shard value) carries
  its own SHA-256, and the first ``get`` or ``put`` of a journal reads
  and verifies the whole log once into an in-memory index.  A log
  holding any bad record (a torn tail, a bit flip, a garbage line, a
  payload that does not unpickle) is kept as
  ``journal.log.<n>.corrupt`` and rewritten from its good records with
  :func:`atomic_write_bytes`; each bad record is quarantined and
  recomputed instead of poisoning the resumed run, and a torn record is
  never replayed.

Shard files of the older one-file-per-shard layout (``*.shard.pkl``)
are not read: a directory holding only those recomputes its trials.

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

import base64
import binascii
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

#: name of the record log inside a checkpoint directory
LOG_NAME = "journal.log"

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


class _BadRecord(ValueError):
    """One log line that does not verify; the message says why."""


def _parse_record(line: bytes) -> "tuple[str, bytes]":
    """``(key, payload)`` of one verified log line (without its newline)."""
    fields = line.split(b" ")
    if len(fields) != 3 or not fields[0] or len(fields[1]) != 64:
        raise _BadRecord("is malformed")
    key, digest, encoded = fields
    try:
        payload = base64.b64decode(encoded, validate=True)
        text_key = key.decode("ascii")
    except (binascii.Error, UnicodeDecodeError):
        raise _BadRecord("is malformed") from None
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise _BadRecord("failed its payload checksum")
    try:
        pickle.loads(payload)
    except Exception:
        raise _BadRecord("failed to unpickle") from None
    return text_key, payload


class CheckpointJournal:
    """Append-only log of checksummed result shards in one directory.

    ``max_new_shards`` is the deterministic interruption hook: after
    persisting that many *new* shards the journal raises
    :class:`~repro.errors.CheckpointInterrupted`, leaving the directory
    exactly as a real mid-run kill would — tests and chaos drills
    resume from it with a fresh journal over the same path.

    Counters: ``new_shards`` (persisted this run), ``replayed``
    (served from disk this run), ``quarantined`` (bad records moved
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
        self.log_path = os.path.join(self.path, LOG_NAME)
        self.max_new_shards = max_new_shards
        self.report = report
        self.new_shards = 0
        self.replayed = 0
        self.quarantined = 0
        #: verified payload per key, read from the log on first use
        self._payloads: "dict[str, bytes] | None" = None
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

    def _index(self) -> "dict[str, bytes]":
        if self._payloads is None:
            self._payloads = self._load()
        return self._payloads

    def _load(self) -> "dict[str, bytes]":
        """Read and verify the whole log; quarantine it if a record is bad."""
        try:
            with open(self.log_path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint journal {self.log_path!r}: {exc}"
            ) from exc
        lines = blob.split(b"\n")
        tail = lines.pop()  # empty unless the last record is torn
        payloads: dict[str, bytes] = {}
        good: list[bytes] = []
        bad: list[str] = []
        for number, line in enumerate(lines, start=1):
            try:
                key, payload = _parse_record(line)
            except _BadRecord as reason:
                bad.append(f"record {number} {reason}")
                continue
            payloads[key] = payload
            good.append(line)
        if tail:
            bad.append(f"record {len(lines) + 1} is torn (no newline)")
        if bad:
            self._quarantine(blob, good, bad)
        return payloads

    def _quarantine(
        self, blob: bytes, good: "list[bytes]", bad: "list[str]"
    ) -> None:
        """Keep the bad log as ``journal.log.<n>.corrupt``; rewrite it.

        The copy is written before the log is replaced, so a kill
        during quarantine leaves every good record in ``journal.log``.
        """
        number = 1
        while os.path.exists(f"{self.log_path}.{number}.corrupt"):
            number += 1
        corrupt = f"{self.log_path}.{number}.corrupt"
        atomic_write_bytes(corrupt, blob)
        atomic_write_bytes(
            self.log_path, b"".join(line + b"\n" for line in good)
        )
        for reason in bad:
            self.quarantined += 1
            record_event(
                self.report,
                "journal-quarantine",
                f"{reason} in {self.log_path}; it was moved to "
                f"{os.path.basename(corrupt)} and will be recomputed",
            )

    def get(self, key: str) -> "tuple[bool, object]":
        """``(True, value)`` for a verified shard, else ``(False, None)``.

        Bad records were quarantined when the log was read, so a shard
        that did not verify reads as missing — the caller recomputes
        it, and the journal heals itself.
        """
        payload = self._index().get(key)
        if payload is None:
            return False, None
        self.replayed += 1
        return True, pickle.loads(payload)

    def put(self, key: str, value: object) -> None:
        """Append and ``fsync`` one shard; honours ``max_new_shards``."""
        if (
            self.max_new_shards is not None
            and self.new_shards >= self.max_new_shards
        ):
            raise CheckpointInterrupted(
                f"checkpoint budget of {self.max_new_shards} new "
                f"shard(s) reached",
                shards_written=self.new_shards,
            )
        if not key.isascii() or key.split() != [key]:
            raise CheckpointError(
                f"journal key {key!r} is not one ASCII token"
            )
        index = self._index()
        payload = pickle.dumps(value, protocol=4)
        digest = hashlib.sha256(payload).hexdigest()
        record = (
            f"{key} {digest} ".encode("ascii")
            + base64.b64encode(payload)
            + b"\n"
        )
        try:
            handle = os.open(
                self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600
            )
            try:
                view = memoryview(record)
                while view:  # one write unless the disk returns short
                    view = view[os.write(handle, view):]
                os.fsync(handle)
            finally:
                os.close(handle)
        except BaseException:
            # the log may now end in a torn record: read it again (and
            # quarantine the tear) before the next get or put
            self._payloads = None
            raise
        index[key] = payload
        self.new_shards += 1

    def corrupt_files(self) -> list[str]:
        """Quarantined (``*.corrupt``) files in this journal's directory."""
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
    each new result is persisted the moment it reaches the calling
    process — in item order on the plain pool, out of order under a
    :class:`~repro.runtime.policy.RunPolicy`, which is safe because the
    shard id is the item's position.  With ``checkpoint=None`` this is
    exactly ``parallel_map``.  The keys and bytes do not depend on
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
