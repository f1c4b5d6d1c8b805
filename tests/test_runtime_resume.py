"""Interrupt/resume determinism for long drivers and the CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro import cli
from repro.errors import CheckpointInterrupted
from repro.faults.campaign import run_campaign
from repro.runtime import CheckpointJournal
from repro.sim.runner import monte_carlo_latency


class TestCampaignResume:
    def test_killed_campaign_resumes_byte_identically(
        self, fig2_result, tmp_path
    ):
        path = str(tmp_path / "ck")
        clean = run_campaign(
            fig2_result, trials=4, benchmark="fig2"
        ).to_json()
        # interrupt deterministically after 3 persisted trials — the
        # journal-level stand-in for kill -9 mid-campaign
        with pytest.raises(CheckpointInterrupted):
            run_campaign(
                fig2_result,
                trials=4,
                benchmark="fig2",
                checkpoint=CheckpointJournal(path, max_new_shards=3),
            )
        resumed = run_campaign(
            fig2_result, trials=4, benchmark="fig2", checkpoint=path
        )
        assert resumed.to_json() == clean
        replay = CheckpointJournal(path)
        again = run_campaign(
            fig2_result, trials=4, benchmark="fig2", checkpoint=replay
        )
        assert again.to_json() == clean
        assert replay.new_shards == 0  # fully replayed, nothing re-run

    def test_monte_carlo_resume_matches_uninterrupted(
        self, fig2_result, tmp_path
    ):
        path = str(tmp_path / "ck")
        system = fig2_result.distributed_system()
        clean = monte_carlo_latency(
            system, fig2_result.bound, p=0.7, trials=10, seed=1
        )
        with pytest.raises(CheckpointInterrupted):
            monte_carlo_latency(
                system, fig2_result.bound, p=0.7, trials=10, seed=1,
                checkpoint=CheckpointJournal(path, max_new_shards=4),
            )
        resumed = monte_carlo_latency(
            system, fig2_result.bound, p=0.7, trials=10, seed=1,
            checkpoint=path,
        )
        assert resumed == clean

    def test_campaign_run_key_excludes_workers(
        self, fig2_result, tmp_path
    ):
        path = str(tmp_path / "ck")
        parallel = run_campaign(
            fig2_result, trials=3, benchmark="fig2",
            workers=2, checkpoint=path,
        )
        replay = CheckpointJournal(path)
        serial = run_campaign(
            fig2_result, trials=3, benchmark="fig2",
            workers=1, checkpoint=replay,
        )
        assert serial.to_json() == parallel.to_json()
        assert replay.new_shards == 0


class TestCliResume:
    FAULT_ARGS = [
        "faults", "fig2", "--trials", "2", "--seed", "0",
        "--style", "dist",
    ]

    def test_checkpoint_run_plus_resume_byte_identical(
        self, tmp_path, capsys
    ):
        ck = str(tmp_path / "ck")
        clean_json = str(tmp_path / "clean.json")
        ck_json = str(tmp_path / "ck.json")
        assert cli.main(self.FAULT_ARGS + ["--json", clean_json]) == 0
        assert (
            cli.main(
                self.FAULT_ARGS
                + ["--json", ck_json, "--checkpoint-dir", ck]
            )
            == 0
        )
        assert open(ck_json).read() == open(clean_json).read()
        manifest = json.load(open(os.path.join(ck, "manifest.json")))
        assert manifest["argv"] == (
            self.FAULT_ARGS + ["--json", ck_json, "--checkpoint-dir", ck]
        )
        os.unlink(ck_json)
        capsys.readouterr()
        assert cli.main(["resume", ck]) == 0
        err = capsys.readouterr().err
        assert "resuming: repro faults fig2" in err
        assert open(ck_json).read() == open(clean_json).read()

    def test_resume_rejects_missing_manifest(self, tmp_path, capsys):
        assert cli.main(["resume", str(tmp_path)]) == 1
        assert "cannot read resume manifest" in capsys.readouterr().err

    def test_resume_rejects_malformed_manifest(self, tmp_path, capsys):
        with open(os.path.join(str(tmp_path), "manifest.json"), "w") as f:
            json.dump({"schema": 1, "argv": "faults"}, f)
        assert cli.main(["resume", str(tmp_path)]) == 1
        assert "resumable" in capsys.readouterr().err


class TestResumeQuarantineNote:
    def test_resume_warns_about_quarantined_shards(
        self, tmp_path, capsys
    ):
        ck = tmp_path / "ck"
        ck.mkdir()
        (ck / "manifest.json").write_text(
            json.dumps({"argv": ["benchmarks"]})
        )
        (ck / "feedface.shard.pkl.corrupt").write_bytes(b"torn")
        assert cli.main(["resume", str(ck)]) == 0
        err = capsys.readouterr().err
        assert "resuming: repro benchmarks" in err
        notes = [
            line
            for line in err.splitlines()
            if "quarantined shard file(s)" in line
        ]
        assert notes == [
            f"note: 1 quarantined shard file(s) in {ck}; they will be "
            f"recomputed"
        ]

    def test_resume_silent_without_quarantine(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        ck.mkdir()
        (ck / "manifest.json").write_text(
            json.dumps({"argv": ["benchmarks"]})
        )
        assert cli.main(["resume", str(ck)]) == 0
        assert "quarantined" not in capsys.readouterr().err


def test_fig2_benchmark_exists():
    """The CLI tests above lean on a registered 'fig2' benchmark."""
    from repro.benchmarks.registry import benchmark

    assert benchmark("fig2").dfg().name
