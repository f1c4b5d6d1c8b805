"""Tests for the checkpoint journal (:mod:`repro.runtime.journal`)."""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
import time

import pytest

from repro.errors import CheckpointError, CheckpointInterrupted
from repro.perf.engine import default_chunksize, parallel_map
from repro.runtime import CheckpointJournal, active_report
from repro.runtime.journal import LOG_NAME, atomic_write_bytes
from repro.runtime.policy import RunReport


def _double(x: int) -> int:
    return 2 * x


def _slow_square(x: int) -> int:
    time.sleep(0.03)
    return x * x


def _slow_square_failing_at_15(x: int) -> int:
    if x == 15:
        raise ValueError("trial 15 fails")
    return _slow_square(x)


def _records(path: str) -> list[bytes]:
    """The log's lines, each with its newline (a torn tail has none)."""
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def _write_log(path: str, records: "list[bytes]") -> None:
    with open(path, "wb") as handle:
        handle.write(b"".join(records))


def _record(key: str, payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).hexdigest()
    return f"{key} {digest} ".encode() + base64.b64encode(payload) + b"\n"


def _truncate(path: str) -> None:
    """Tear the last record: cut the log inside it."""
    last = _records(path)[-1]
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - len(last) // 2)


def _bit_flip(path: str, record: int = 0) -> None:
    """Flip one bit in the middle of one record's payload field."""
    records = _records(path)
    line = bytearray(records[record])
    payload_start = line.rindex(b" ") + 1
    line[(payload_start + len(line) - 1) // 2] ^= 0x01
    records[record] = bytes(line)
    _write_log(path, records)


class TestAtomicWrite:
    def test_roundtrip_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(str(target), b"hello")
        assert target.read_bytes() == b"hello"
        atomic_write_bytes(str(target), b"replaced")
        assert target.read_bytes() == b"replaced"
        assert os.listdir(str(tmp_path)) == ["blob.bin"]


class TestCheckpointJournal:
    def test_put_get_roundtrip(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ck"))
        key = journal.key("run-a", 0)
        assert journal.get(key) == (False, None)
        journal.put(key, {"cycles": 11})
        assert journal.get(key) == (True, {"cycles": 11})
        assert journal.new_shards == 1 and journal.replayed == 1

    def test_keys_are_content_addressed(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ck"))
        assert journal.key("run-a", 0) != journal.key("run-a", 1)
        assert journal.key("run-a", 0) != journal.key("run-b", 0)
        assert journal.key("run-a", 0) == CheckpointJournal.key("run-a", 0)

    def test_truncated_shard_quarantined_and_recomputed(self, tmp_path):
        path = str(tmp_path / "ck")
        journal = CheckpointJournal(path)
        key = journal.key("run-a", 3)
        journal.put(key, [1, 2, 3])
        with open(journal.log_path, "rb") as handle:
            blob = handle.read()
        with open(journal.log_path, "wb") as handle:
            handle.write(blob[: len(blob) - 4])
        fresh = CheckpointJournal(path)
        with active_report() as report:
            assert fresh.get(key) == (False, None)
        assert fresh.quarantined == 1
        assert os.path.exists(journal.log_path + ".1.corrupt")
        assert report.count("journal-quarantine") == 1
        fresh.put(key, [1, 2, 3])
        assert fresh.get(key) == (True, [1, 2, 3])
        assert CheckpointJournal(path).get(key) == (True, [1, 2, 3])

    def test_garbage_header_quarantined(self, tmp_path):
        path = str(tmp_path / "ck")
        journal = CheckpointJournal(path)
        key = journal.key("run-a", 0)
        _write_log(journal.log_path, [b"not a record at all\n"])
        assert journal.get(key) == (False, None)
        assert journal.quarantined == 1

    def test_unpicklable_payload_quarantined(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ck"))
        key = journal.key("run-a", 0)
        # a valid checksum over bytes that do not unpickle
        _write_log(journal.log_path, [_record(key, b"not a pickle")])
        assert journal.get(key) == (False, None)
        assert journal.quarantined == 1
        assert journal.corrupt_files() == [
            journal.log_path + ".1.corrupt"
        ]

    def test_max_new_shards_interrupts_deterministically(self, tmp_path):
        journal = CheckpointJournal(
            str(tmp_path / "ck"), max_new_shards=2
        )
        journal.put(journal.key("r", 0), 0)
        journal.put(journal.key("r", 1), 1)
        with pytest.raises(CheckpointInterrupted) as excinfo:
            journal.put(journal.key("r", 2), 2)
        assert excinfo.value.shards_written == 2


class TestCheckpointedMap:
    """``parallel_map`` through a checkpoint journal."""

    def test_without_journal_is_plain_map(self):
        assert parallel_map(
            _double, range(5), run_key="", checkpoint=None
        ) == [0, 2, 4, 6, 8]

    def test_shards_written_incrementally_and_replayed(self, tmp_path):
        path = str(tmp_path / "ck")
        out = parallel_map(
            _double, range(6), run_key="run", checkpoint=path
        )
        assert out == [0, 2, 4, 6, 8, 10]
        assert os.listdir(path) == [LOG_NAME]
        keys = [
            record.split(b" ")[0].decode()
            for record in _records(os.path.join(path, LOG_NAME))
        ]
        assert keys == [CheckpointJournal.key("run", i) for i in range(6)]
        replay = CheckpointJournal(path)
        again = parallel_map(
            _double, range(6), run_key="run", checkpoint=replay
        )
        assert again == out
        assert replay.replayed == 6 and replay.new_shards == 0

    def test_interrupted_run_resumes_byte_identically(self, tmp_path):
        path = str(tmp_path / "ck")
        limited = CheckpointJournal(path, max_new_shards=3)
        with pytest.raises(CheckpointInterrupted):
            parallel_map(
                _double, range(10), run_key="run", checkpoint=limited
            )
        assert limited.new_shards == 3
        resumed = parallel_map(
            _double, range(10), run_key="run",
            checkpoint=CheckpointJournal(path),
        )
        assert resumed == [_double(x) for x in range(10)]

    def test_run_keys_do_not_cross_replay(self, tmp_path):
        path = str(tmp_path / "ck")
        parallel_map(_double, range(3), run_key="a", checkpoint=path)
        fresh = CheckpointJournal(path)
        parallel_map(str, range(3), run_key="b", checkpoint=fresh)
        assert fresh.replayed == 0 and fresh.new_shards == 3

    def test_parallel_and_serial_share_a_journal(self, tmp_path):
        path = str(tmp_path / "ck")
        first = parallel_map(
            _double, range(8), run_key="run", checkpoint=path, workers=2
        )
        replay = CheckpointJournal(path)
        second = parallel_map(
            _double, range(8), run_key="run", checkpoint=replay, workers=1
        )
        assert first == second
        assert replay.replayed == 8

    @pytest.mark.parametrize("chunk, persisted", [(3, 13)])
    def test_pool_persists_results_before_a_failure(
        self, tmp_path, chunk, persisted
    ):
        # the pool returns a chunk as one result, so a failing item
        # also loses the chunk-mates computed with it: with the default
        # chunks of 3 after the probe's item 0, item 15 shares a chunk
        # with 13, 14
        assert default_chunksize(19, 2) == chunk
        path = str(tmp_path / "ck")
        journal = CheckpointJournal(path)
        report = RunReport()
        with pytest.raises(ValueError):
            parallel_map(
                _slow_square_failing_at_15, range(20), run_key="pool",
                checkpoint=journal, workers=2, report=report,
            )
        decisions = [
            event.detail for event in report.events
            if event.kind == "parallel-amortization"
        ]
        assert len(decisions) == 1 and "running on 2 workers" in decisions[0]
        assert journal.new_shards == persisted
        resumed = CheckpointJournal(path)
        out = parallel_map(
            _slow_square, range(20), run_key="pool", checkpoint=resumed
        )
        assert out == [x * x for x in range(20)]
        assert resumed.replayed == persisted
        assert resumed.new_shards == 20 - persisted


RUN_KEY = "torn-shard-test|v1"

CORRUPTIONS = {"truncate": _truncate, "bit-flip": _bit_flip}


class TestTornShardMidCampaign:
    """Interrupt a campaign, tear a committed shard, resume."""

    @pytest.mark.parametrize("tear", sorted(CORRUPTIONS))
    def test_resume_recomputes_torn_shard(self, tmp_path, tear):
        path = str(tmp_path / "ckpt")
        log = os.path.join(path, LOG_NAME)
        items = list(range(6))
        baseline = [item * item for item in items]

        with pytest.raises(CheckpointInterrupted):
            parallel_map(
                lambda item: item * item,
                items,
                run_key=RUN_KEY,
                checkpoint=CheckpointJournal(path, max_new_shards=3),
            )
        assert len(_records(log)) == 3
        CORRUPTIONS[tear](log)

        report = RunReport()
        resumed = parallel_map(
            lambda item: item * item,
            items,
            run_key=RUN_KEY,
            checkpoint=path,
            report=report,
        )
        assert resumed == baseline
        assert report.count("journal-quarantine") == 1
        assert os.path.exists(log + ".1.corrupt")
        # the recomputed shard re-verifies: a third pass is pure replay
        replay_journal = CheckpointJournal(path)
        assert (
            parallel_map(
                lambda item: item * item,
                items,
                run_key=RUN_KEY,
                checkpoint=replay_journal,
            )
            == baseline
        )
        assert replay_journal.replayed == len(items)
        assert replay_journal.new_shards == 0

    def test_recomputed_shard_bytes_match_original(self, tmp_path):
        # content-addressed + deterministic pickle: the recomputed
        # record is byte-identical to the one that was torn
        path = str(tmp_path / "ckpt")
        journal = CheckpointJournal(path)
        key = journal.key(RUN_KEY, 0)
        journal.put(key, {"stats": (1.5, 2.5)})
        [original] = _records(journal.log_path)
        _bit_flip(journal.log_path)
        fresh = CheckpointJournal(path)
        assert fresh.get(key) == (False, None)
        fresh.put(key, {"stats": (1.5, 2.5)})
        assert _records(journal.log_path) == [original]

    def test_shard_payload_is_checksummed_pickle(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ckpt"))
        key = journal.key(RUN_KEY, 0)
        journal.put(key, [1, 2])
        [record] = _records(journal.log_path)
        assert record.endswith(b"\n")
        stored_key, digest, encoded = record[:-1].split(b" ")
        assert stored_key.decode() == key
        payload = base64.b64decode(encoded, validate=True)
        assert len(digest) == 64
        assert hashlib.sha256(payload).hexdigest().encode() == digest
        assert pickle.loads(payload) == [1, 2]


class TestRecordLog:
    """One append-only log per directory, one ``fsync`` per shard."""

    def test_puts_append_to_one_file_with_one_fsync_each(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "ck")
        journal = CheckpointJournal(path)
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        for shard in range(7):
            journal.put(journal.key("run", shard), shard)
        assert os.listdir(path) == [LOG_NAME]
        assert len(calls) == 7
        assert len(_records(journal.log_path)) == 7

    def test_torn_tail_then_appends_replays_every_later_record(
        self, tmp_path
    ):
        path = str(tmp_path / "ck")
        keys = [CheckpointJournal.key("run", shard) for shard in range(6)]
        first = CheckpointJournal(path)
        for shard in range(3):
            first.put(keys[shard], shard)
        _truncate(first.log_path)  # a kill while writing shard 2
        second = CheckpointJournal(path)
        for shard in range(3, 6):
            second.put(keys[shard], shard)
        assert second.quarantined == 1
        replay = CheckpointJournal(path)
        found = [replay.get(key) for key in keys]
        assert found == [
            (True, 0), (True, 1), (False, None),
            (True, 3), (True, 4), (True, 5),
        ]
        assert replay.quarantined == 0
        assert len(replay.corrupt_files()) == 1

    def test_bit_flip_in_middle_record_quarantines_only_it(self, tmp_path):
        path = str(tmp_path / "ck")
        keys = [CheckpointJournal.key("run", shard) for shard in range(5)]
        journal = CheckpointJournal(path)
        for shard, key in enumerate(keys):
            journal.put(key, {"shard": shard})
        _bit_flip(journal.log_path, record=2)
        with open(journal.log_path, "rb") as handle:
            flipped = handle.read()
        fresh = CheckpointJournal(path)
        with active_report() as report:
            found = [fresh.get(key) for key in keys]
        assert found == [
            (True, {"shard": 0}), (True, {"shard": 1}), (False, None),
            (True, {"shard": 3}), (True, {"shard": 4}),
        ]
        assert fresh.quarantined == 1
        assert report.count("journal-quarantine") == 1
        assert len(_records(fresh.log_path)) == 4
        [corrupt] = fresh.corrupt_files()
        with open(corrupt, "rb") as handle:
            assert handle.read() == flipped

    def test_stray_shard_file_ignored(self, tmp_path):
        path = str(tmp_path / "ck")
        key = CheckpointJournal.key("run", 0)
        # a verified shard in the older one-file-per-shard layout
        payload = pickle.dumps(42, protocol=4)
        stray = os.path.join(path, f"{key}.shard.pkl")
        os.makedirs(path)
        with open(stray, "wb") as handle:
            handle.write(
                hashlib.sha256(payload).hexdigest().encode()
                + b"\n" + payload
            )
        journal = CheckpointJournal(path)
        assert journal.get(key) == (False, None)
        assert journal.replayed == 0 and journal.quarantined == 0
        assert journal.corrupt_files() == []
        assert os.path.exists(stray)

    def test_key_must_be_one_token(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ck"))
        for key in ("", "two words", "line\nbreak"):
            with pytest.raises(CheckpointError):
                journal.put(key, 0)
        assert not os.path.exists(journal.log_path)
