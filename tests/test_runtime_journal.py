"""Tests for the checkpoint journal (:mod:`repro.runtime.journal`)."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.errors import CheckpointInterrupted
from repro.runtime import CheckpointJournal, active_report, checkpointed_map
from repro.runtime.journal import (
    SHARD_SUFFIX,
    atomic_write_bytes,
    resolve_journal,
)
from repro.runtime.policy import RunReport


def _double(x: int) -> int:
    return 2 * x


class TestAtomicWrite:
    def test_roundtrip_leaves_no_temp_files(self, tmp_path):
        target = str(tmp_path / "blob.bin")
        atomic_write_bytes(target, b"hello")
        assert open(target, "rb").read() == b"hello"
        atomic_write_bytes(target, b"replaced")
        assert open(target, "rb").read() == b"replaced"
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
        shard = journal.shard_file(key)
        blob = open(shard, "rb").read()
        with open(shard, "wb") as handle:
            handle.write(blob[: len(blob) - 4])
        fresh = CheckpointJournal(path)
        with active_report() as report:
            assert fresh.get(key) == (False, None)
        assert fresh.quarantined == 1
        assert os.path.exists(shard + ".corrupt")
        assert report.count("journal-quarantine") == 1
        fresh.put(key, [1, 2, 3])
        assert fresh.get(key) == (True, [1, 2, 3])

    def test_garbage_header_quarantined(self, tmp_path):
        path = str(tmp_path / "ck")
        journal = CheckpointJournal(path)
        key = journal.key("run-a", 0)
        with open(journal.shard_file(key), "wb") as handle:
            handle.write(b"not a shard at all")
        assert journal.get(key) == (False, None)
        assert journal.quarantined == 1

    def test_unpicklable_payload_quarantined(self, tmp_path):
        import hashlib

        journal = CheckpointJournal(str(tmp_path / "ck"))
        key = journal.key("run-a", 0)
        # a valid checksum over bytes that do not unpickle
        payload = b"not a pickle"
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        with open(journal.shard_file(key), "wb") as handle:
            handle.write(digest + b"\n" + payload)
        assert journal.get(key) == (False, None)
        assert journal.quarantined == 1
        assert journal.corrupt_files() == [
            journal.shard_file(key) + ".corrupt"
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

    def test_resolve_journal(self, tmp_path):
        assert resolve_journal(None) is None
        journal = CheckpointJournal(str(tmp_path / "ck"))
        assert resolve_journal(journal) is journal
        made = resolve_journal(str(tmp_path / "other"))
        assert isinstance(made, CheckpointJournal)


class TestCheckpointedMap:
    def test_without_journal_is_plain_map(self):
        assert checkpointed_map(
            _double, range(5), run_key="", checkpoint=None
        ) == [0, 2, 4, 6, 8]

    def test_shards_written_incrementally_and_replayed(self, tmp_path):
        path = str(tmp_path / "ck")
        out = checkpointed_map(
            _double, range(6), run_key="run", checkpoint=path
        )
        assert out == [0, 2, 4, 6, 8, 10]
        shards = [
            f for f in os.listdir(path) if f.endswith(SHARD_SUFFIX)
        ]
        assert len(shards) == 6
        replay = CheckpointJournal(path)
        again = checkpointed_map(
            _double, range(6), run_key="run", checkpoint=replay
        )
        assert again == out
        assert replay.replayed == 6 and replay.new_shards == 0

    def test_interrupted_run_resumes_byte_identically(self, tmp_path):
        path = str(tmp_path / "ck")
        limited = CheckpointJournal(path, max_new_shards=3)
        with pytest.raises(CheckpointInterrupted):
            checkpointed_map(
                _double, range(10), run_key="run", checkpoint=limited
            )
        assert limited.new_shards == 3
        resumed = checkpointed_map(
            _double, range(10), run_key="run",
            checkpoint=CheckpointJournal(path),
        )
        assert resumed == [_double(x) for x in range(10)]

    def test_run_keys_do_not_cross_replay(self, tmp_path):
        path = str(tmp_path / "ck")
        checkpointed_map(_double, range(3), run_key="a", checkpoint=path)
        fresh = CheckpointJournal(path)
        checkpointed_map(str, range(3), run_key="b", checkpoint=fresh)
        assert fresh.replayed == 0 and fresh.new_shards == 3

    def test_parallel_and_serial_share_a_journal(self, tmp_path):
        path = str(tmp_path / "ck")
        first = checkpointed_map(
            _double, range(8), run_key="run", checkpoint=path, workers=2
        )
        replay = CheckpointJournal(path)
        second = checkpointed_map(
            _double, range(8), run_key="run", checkpoint=replay, workers=1
        )
        assert first == second
        assert replay.replayed == 8


RUN_KEY = "torn-shard-test|v1"


def _shard_bytes(journal: CheckpointJournal, key: str) -> bytes:
    with open(journal.shard_file(key), "rb") as handle:
        return handle.read()


def _truncate(path: str) -> None:
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(size // 2, 1))


def _bit_flip(path: str) -> None:
    with open(path, "r+b") as handle:
        blob = bytearray(handle.read())
        blob[-1] ^= 0xFF
        handle.seek(0)
        handle.write(blob)


CORRUPTIONS = {"truncate": _truncate, "bit-flip": _bit_flip}


class TestTornShardMidCampaign:
    """Interrupt a campaign, tear a committed shard, resume."""

    @pytest.mark.parametrize("tear", sorted(CORRUPTIONS))
    def test_resume_recomputes_torn_shard(self, tmp_path, tear):
        path = str(tmp_path / "ckpt")
        items = list(range(6))
        baseline = [item * item for item in items]

        with pytest.raises(CheckpointInterrupted):
            checkpointed_map(
                lambda item: item * item,
                items,
                run_key=RUN_KEY,
                checkpoint=CheckpointJournal(path, max_new_shards=3),
            )
        shards = sorted(
            name
            for name in os.listdir(path)
            if name.endswith(".shard.pkl")
        )
        assert len(shards) == 3
        CORRUPTIONS[tear](os.path.join(path, shards[0]))

        report = RunReport()
        resumed = checkpointed_map(
            lambda item: item * item,
            items,
            run_key=RUN_KEY,
            checkpoint=path,
            report=report,
        )
        assert resumed == baseline
        assert report.count("journal-quarantine") == 1
        assert os.path.exists(
            os.path.join(path, shards[0] + ".corrupt")
        )
        # the recomputed shard re-verifies: a third pass is pure replay
        replay_journal = CheckpointJournal(path)
        assert (
            checkpointed_map(
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
        # shard file is byte-identical to the one that was torn
        journal = CheckpointJournal(str(tmp_path / "ckpt"))
        key = journal.key(RUN_KEY, 0)
        journal.put(key, {"stats": (1.5, 2.5)})
        original = _shard_bytes(journal, key)
        _bit_flip(journal.shard_file(key))
        assert journal.get(key) == (False, None)
        journal.put(key, {"stats": (1.5, 2.5)})
        assert _shard_bytes(journal, key) == original

    def test_shard_payload_is_checksummed_pickle(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ckpt"))
        key = journal.key(RUN_KEY, 0)
        journal.put(key, [1, 2])
        blob = _shard_bytes(journal, key)
        digest, payload = blob.split(b"\n", 1)
        assert len(digest) == 64
        assert pickle.loads(payload) == [1, 2]
