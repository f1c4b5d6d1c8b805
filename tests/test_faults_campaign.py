"""Campaign-level tests: classification, reproducibility, reporting."""

from pathlib import Path

import pytest

from repro.errors import InjectedFaultEscape
from repro.faults import (
    FaultCampaignReport,
    FaultTrialRecord,
    run_campaign,
)


@pytest.fixture(scope="module")
def small_campaign(request) -> FaultCampaignReport:
    fig2 = request.getfixturevalue("fig2_result")
    return run_campaign(fig2, trials=8, seed=1, benchmark="fig2")


class TestClassification:
    def test_every_trial_is_classified(self, small_campaign):
        report = small_campaign
        assert report.styles() == ("dist", "cent-sync")
        for style in report.styles():
            records = report.for_style(style)
            assert len(records) == report.trials
            for record in records:
                assert record.outcome in ("detected", "tolerated", "silent")

    def test_detected_trials_name_a_monitor(self, small_campaign):
        for record in small_campaign.records:
            if record.outcome == "detected":
                assert record.detector
                assert record.diagnostic
            if record.outcome == "tolerated":
                assert record.detector is None
                assert record.latency_delta is not None

    def test_no_silent_corruption_on_paper_designs(self, small_campaign):
        """The headline robustness claim: every injected control fault is
        either detected by a monitor or absorbed bit-correct."""
        assert small_campaign.escapes() == ()
        small_campaign.check_no_escapes()  # must not raise

    def test_summary_counts_are_consistent(self, small_campaign):
        for style in small_campaign.styles():
            summary = small_campaign.summary(style)
            assert sum(summary["totals"].values()) == summary["trials"]
            per_kind = {
                outcome: sum(
                    row[outcome] for row in summary["by_kind"].values()
                )
                for outcome in ("detected", "tolerated", "silent")
            }
            assert per_kind == summary["totals"]


class TestReproducibility:
    def test_same_seed_same_json(self, fig2_result):
        a = run_campaign(fig2_result, trials=5, seed=7, benchmark="fig2")
        b = run_campaign(fig2_result, trials=5, seed=7, benchmark="fig2")
        assert a.to_json() == b.to_json()

    def test_fig2_campaign_matches_golden_json(self, fig2_result):
        """``repro faults fig2 --trials 10 --seed 0 --json`` output, pinned.

        Trials share one controller system per style and read its
        transition table; the records must not notice.
        """
        golden = Path(__file__).parent / "golden" / "faults_fig2.json"
        report = run_campaign(fig2_result, trials=10, seed=0, benchmark="fig2")
        assert (report.to_json() + "\n").encode() == golden.read_bytes()

    def test_different_seed_different_faults(self, fig2_result):
        a = run_campaign(fig2_result, trials=5, seed=7, benchmark="fig2")
        b = run_campaign(fig2_result, trials=5, seed=8, benchmark="fig2")
        assert [r.fault for r in a.records] != [r.fault for r in b.records]


class TestReporting:
    def test_render_compares_styles(self, small_campaign):
        text = small_campaign.render()
        assert "vulnerability comparison" in text
        assert "[dist]" in text
        assert "[cent-sync]" in text
        assert "monitors fired" in text

    def test_json_round_trip_structure(self, small_campaign):
        import json

        data = json.loads(small_campaign.to_json())
        assert data["benchmark"] == "fig2"
        assert set(data["styles"]) == {"dist", "cent-sync"}
        for style_data in data["styles"].values():
            assert len(style_data["records"]) == data["trials"]

    def test_check_no_escapes_raises_on_silent_record(self, small_campaign):
        poisoned = FaultCampaignReport(
            benchmark=small_campaign.benchmark,
            trials=small_campaign.trials,
            seed=small_campaign.seed,
            p=small_campaign.p,
            records=small_campaign.records
            + (
                FaultTrialRecord(
                    trial=99,
                    style="dist",
                    fault_kind="stuck-completion",
                    fault="synthetic escape",
                    target={"kind": "stuck-completion"},
                    outcome="silent",
                    detector=None,
                    diagnostic="wrong value",
                    cycles=12,
                    latency_delta=0,
                ),
            ),
        )
        with pytest.raises(InjectedFaultEscape, match="silent corruption"):
            poisoned.check_no_escapes()


class TestEntryPoints:
    def test_api_fault_campaign_method(self, fig3_result):
        report = fig3_result.fault_campaign(trials=3, seed=2, styles=("dist",))
        assert report.benchmark == "fig3"
        assert report.styles() == ("dist",)
        assert len(report.records) == 3
        assert report.escapes() == ()
