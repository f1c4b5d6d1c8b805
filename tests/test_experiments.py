"""Tests for the table experiments and ablation drivers."""

from pathlib import Path

import pytest

from repro.experiments import (
    run_csg_sweep,
    run_opdist,
    run_pipeline,
    run_psweep,
    run_sdld_sweep,
    run_table1,
    run_table2,
)
from repro.benchmarks import benchmark

GOLDEN = Path(__file__).parent / "golden"


class TestTable1:
    @pytest.fixture(scope="class")
    def table1(self, diffeq_result=None):
        return run_table1("diffeq")

    def test_paper_shape_holds(self, table1):
        table1.check_shape()

    def test_component_rows_present(self, table1):
        names = {r.name for r in table1.dist_components}
        assert names == {"D-FSM-TM1", "D-FSM-TM2", "D-FSM-A1", "D-FSM-S1"}

    def test_dist_aggregates_components(self, table1):
        assert table1.dist.num_states == sum(
            r.num_states for r in table1.dist_components
        )
        assert table1.dist.num_flip_flops > sum(
            r.num_flip_flops for r in table1.dist_components
        )  # + completion latches

    def test_render_has_paper_columns(self, table1):
        text = table1.render()
        assert "Area(Com./Seq.)" in text
        assert "CENT-SYNC-FSM" in text
        assert "DIST-FSM" in text

    def test_render_matches_golden(self, table1):
        """Pinned output of ``python -m repro table1``.  Regenerate with
        ``python -m repro table1 > tests/golden/table1_diffeq.txt`` only
        when Table 1 is meant to change."""
        expected = (GOLDEN / "table1_diffeq.txt").read_text()
        assert table1.render() + "\n" == expected


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self):
        # The two smallest rows keep the test fast; the full table runs in
        # the benchmark harness.
        entries = [benchmark("fir3"), benchmark("diffeq")]
        return run_table2(entries=entries)

    def test_shape_holds(self, table2):
        table2.check_shape()

    def test_paper_clock_and_bounds(self, table2):
        fir3_row = table2.comparisons[0]
        assert fir3_row.benchmark == "3rd FIR"
        # 3 taps on 2 TAU multipliers: best = 3 cycles = 45 ns (paper).
        assert fir3_row.dist.best_ns == 45.0
        assert fir3_row.sync.best_ns == 45.0
        # Worst synchronized case: two TAU steps extend: 5 cycles = 75 ns.
        assert fir3_row.sync.worst_ns == 75.0

    def test_enhancement_small_for_fir3(self, table2):
        """The paper's 3rd FIR row improves least (0.4-2.9%)."""
        fir3_row = table2.comparisons[0]
        for p in table2.ps:
            assert 0.0 <= fir3_row.enhancement(p) < 0.10

    def test_render(self, table2):
        text = table2.render()
        assert "LT_TAU" in text and "LT_DIST" in text


class TestPsweep:
    def test_monotone_and_dominated(self):
        result = run_psweep("fir3", ps=(0.2, 0.6, 1.0))
        assert list(result.dist_ns) == sorted(result.dist_ns, reverse=True)
        for d, s in zip(result.dist_ns, result.sync_ns):
            assert d <= s + 1e-9

    def test_p1_equals_best_case(self):
        result = run_psweep("fir3", ps=(1.0,))
        assert result.dist_ns[0] == result.sync_ns[0]

    def test_crossover_reported(self):
        result = run_psweep("fir5", ps=(0.1, 0.9))
        # At very low P the TAU design loses to the fixed design.
        assert result.crossover_p() == 0.1


class TestSdLd:
    def test_latency_scales_with_sd(self):
        result = run_sdld_sweep(
            "fir3", short_delays_ns=(11.0, 15.0, 19.0)
        )
        assert list(result.dist_ns) == sorted(result.dist_ns)

    def test_rejects_non_two_level_sd(self):
        with pytest.raises(ValueError, match="two-level"):
            run_sdld_sweep("fir3", short_delays_ns=(5.0,))


class TestOpDist:
    def test_more_controllers_more_sequential_area(self):
        result = run_opdist("diffeq")
        assert result.num_ops > result.num_units
        assert result.opdist_seq > result.dist_seq
        assert result.opdist_latches > result.dist_latches


class TestPipeline:
    def test_dist_overlaps_iterations(self):
        result = run_pipeline("fir3", p=0.9, iterations=6)
        assert result.dist_throughput_cycles <= (
            result.sync_throughput_cycles + 1e-9
        )

    def test_render(self):
        assert "throughput" in run_pipeline("fir3", iterations=4).render()


class TestCsgSweep:
    def test_rows_cover_distributions(self):
        result = run_csg_sweep(width=7)
        names = [name for name, _ in result.rows]
        assert "uniform" in names
        assert all(0.0 <= p <= 1.0 for _, p in result.rows)


class TestMultiLevelExperiment:
    def test_exact_matches_simulation(self):
        from repro.experiments import run_multilevel

        result = run_multilevel("fir3", trials=150)
        assert result.dist_expected_cycles <= result.sync_expected_cycles
        assert (
            abs(
                result.dist_simulated_mean_cycles
                - result.dist_expected_cycles
            )
            < 0.3
        )
        assert "X6" in result.render()


class TestActivityExperiment:
    def test_speed_for_energy_trade(self):
        from repro.experiments import run_activity

        result = run_activity("fir3", iterations=6)
        assert (
            result.dist_cycles_per_iteration
            < result.sync_cycles_per_iteration
        )
        assert (
            result.dist_toggles_per_iteration
            >= result.sync_toggles_per_iteration
        )


class TestCommunicationExperiment:
    def test_fdct_saves_latches(self):
        from repro.experiments import run_communication_binding

        result = run_communication_binding("fdct")
        rows = {obj: (w, l, c, s) for obj, w, l, c, s in result.rows}
        assert rows["communication"][1] < rows["latency"][1]
        assert rows["communication"][2] == pytest.approx(
            rows["latency"][2]
        )


class TestEncodingExperiment:
    def test_orderings(self):
        from repro.experiments import run_encoding_ablation

        result = run_encoding_ablation("fig3")
        rows = {
            style: (comb, seq, ffs)
            for style, comb, seq, ffs in result.rows
        }
        assert rows["one-hot"][2] > rows["binary"][2]


class TestPhysicalExperiment:
    def test_measured_p_reasonable(self):
        from repro.experiments import run_physical

        result = run_physical("diffeq", trials=30, small_bits=4)
        assert 0.9 <= result.measured_p <= 1.0
        assert result.simulated_mean_cycles >= 4.0
