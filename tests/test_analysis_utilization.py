"""Unit tests for unit-utilization analysis."""

import pytest

from repro.analysis import utilization_report
from repro.resources import AllSlowCompletion
from repro.sim import simulate


@pytest.fixture()
def dist_sim(fig3_result):
    return simulate(
        fig3_result.distributed_system(),
        fig3_result.bound,
        AllSlowCompletion(),
    )


class TestUtilizationReport:
    def test_all_units_present(self, fig3_result, dist_sim):
        report = utilization_report(fig3_result.bound, dist_sim)
        assert {u.unit for u in report.units} == {
            u.name for u in fig3_result.bound.used_units()
        }

    def test_busy_at_most_window(self, fig3_result, dist_sim):
        report = utilization_report(fig3_result.bound, dist_sim)
        for u in report.units:
            assert 0 < u.busy_cycles <= u.window_cycles
            assert 0.0 < u.utilization <= 1.0
            assert u.idle_cycles == u.window_cycles - u.busy_cycles

    def test_op_counts(self, fig3_result, dist_sim):
        report = utilization_report(fig3_result.bound, dist_sim)
        for u in report.units:
            assert u.operations_executed == len(
                fig3_result.bound.ops_on_unit(u.unit)
            )

    def test_busy_cycles_sum_to_work(self, fig3_result, dist_sim):
        """All-slow: unit busy cycles equal the worst-case work bound."""
        report = utilization_report(fig3_result.bound, dist_sim)
        for u in report.units:
            work = sum(
                fig3_result.bound.duration_cycles(op, fast=False)
                for op in fig3_result.bound.ops_on_unit(u.unit)
            )
            assert u.busy_cycles == min(work, u.window_cycles)

    def test_unit_lookup(self, fig3_result, dist_sim):
        report = utilization_report(fig3_result.bound, dist_sim)
        assert report.unit("TM1").unit == "TM1"
        with pytest.raises(KeyError):
            report.unit("nope")

    def test_render(self, fig3_result, dist_sim):
        text = utilization_report(fig3_result.bound, dist_sim).render()
        assert "utilization" in text and "%" in text


class TestSchemeComparison:
    def test_dist_not_less_utilized_than_sync(self, fig3_result):
        """The paper's goal: DIST minimizes idle time — with equal work
        and shorter (or equal) latency, utilization can only rise."""
        dist = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllSlowCompletion(),
        )
        sync = simulate(
            fig3_result.cent_sync_system(),
            fig3_result.bound,
            AllSlowCompletion(),
        )
        dist_report = utilization_report(fig3_result.bound, dist, "DIST")
        sync_report = utilization_report(
            fig3_result.bound, sync, "CENT-SYNC"
        )
        assert (
            dist_report.mean_utilization()
            >= sync_report.mean_utilization() - 1e-9
        )
