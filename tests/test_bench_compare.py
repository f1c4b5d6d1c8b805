"""The bench regression gate: timing diffs and value-drift detection."""

import copy
import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    BenchComparison,
    ComparisonRow,
    compare_bench,
    compare_bench_files,
)


def _report(synthesize_s, mc_mean=10.0, exact_value=8.5, **meta):
    return {
        "schema": 2,
        "p": 0.7,
        "trials": 100,
        "seed": 0,
        "benchmarks": {
            "fig3": {
                "synthesize_s": synthesize_s,
                "simulate_s": 0.001,
                "simulated_cycles": 7,
                "monte_carlo": {
                    "trials": 100,
                    "serial_s": 0.5,
                    "mean_cycles": mc_mean,
                },
                "exact_engine": {
                    "seconds": 0.002,
                    "mean_cycles": exact_value,
                },
            }
        },
        **meta,
    }


class TestComparisonRow:
    def test_speedup_and_regression(self):
        row = ComparisonRow("fig3", "synthesize", old_s=0.2, new_s=0.1)
        assert row.speedup == pytest.approx(2.0)
        assert not row.regressed(0.2)
        slower = ComparisonRow("fig3", "synthesize", old_s=0.1, new_s=0.13)
        assert slower.regressed(0.2)
        borderline = ComparisonRow(
            "fig3", "synthesize", old_s=0.1, new_s=0.119
        )
        assert not borderline.regressed(0.2)


class TestCompareBench:
    def test_clean_comparison_passes(self):
        comparison = compare_bench(_report(0.1), _report(0.1))
        assert isinstance(comparison, BenchComparison)
        assert comparison.ok
        assert not comparison.regressions
        assert "ok — no section regressed" in comparison.render()

    def test_regression_fails_gate(self):
        comparison = compare_bench(
            _report(0.1), _report(0.5), threshold=0.2
        )
        assert not comparison.ok
        assert [r.metric for r in comparison.regressions] == ["synthesize"]
        assert "<< REGRESSION" in comparison.render()
        assert "FAIL" in comparison.render()

    def test_speedup_never_fails(self):
        comparison = compare_bench(_report(0.5), _report(0.01))
        assert comparison.ok

    def test_value_drift_fails_at_any_threshold(self):
        comparison = compare_bench(
            _report(0.1, exact_value=8.5),
            _report(0.1, exact_value=8.6),
            threshold=100.0,
        )
        assert not comparison.ok
        assert any("exact_engine" in d for d in comparison.value_drifts)

    def test_mc_mean_drift_detected_only_at_same_seed(self):
        drifted = compare_bench(
            _report(0.1, mc_mean=10.0), _report(0.1, mc_mean=11.0)
        )
        assert not drifted.ok
        other_seed = _report(0.1, mc_mean=11.0)
        other_seed["seed"] = 99
        assert compare_bench(_report(0.1, mc_mean=10.0), other_seed).ok

    def test_trial_counts_normalized(self):
        """A --quick run (fewer trials) diffs cleanly per trial."""
        old = _report(0.1)
        new = _report(0.1)
        new["trials"] = 10
        new["benchmarks"]["fig3"]["monte_carlo"] = {
            "trials": 10,
            "serial_s": 0.05,
            "mean_cycles": 9.9,  # different trials: not a drift
        }
        comparison = compare_bench(old, new)
        per_trial = [
            r for r in comparison.rows if r.metric == "mc_serial_per_trial"
        ]
        assert per_trial[0].old_s == pytest.approx(per_trial[0].new_s)
        assert comparison.ok

    def test_missing_sections_skipped(self):
        """Reports from different schema versions diff on common ground."""
        old = _report(0.1)
        del old["benchmarks"]["fig3"]["exact_engine"]
        comparison = compare_bench(old, _report(0.1))
        metrics = {r.metric for r in comparison.rows}
        assert "exact_engine" not in metrics
        assert "synthesize" in metrics
        assert comparison.ok


class TestCommittedBaseline:
    """``--compare BENCH_core.json`` without the ``exact_expectation``."""

    @pytest.fixture()
    def baseline(self):
        path = Path(__file__).resolve().parents[1] / "BENCH_core.json"
        return json.loads(path.read_text())

    @staticmethod
    def _without_exact_expectation(report):
        new = copy.deepcopy(report)
        for row in new["benchmarks"].values():
            row.pop("exact_expectation", None)
        return new

    def test_engine_mean_equals_dropped_expectation(self, baseline):
        for row in baseline["benchmarks"].values():
            assert (
                row["exact_engine"]["mean_cycles"]
                == row["exact_expectation"]["value"]
            )

    def test_exact_values_still_gated(self, baseline):
        new = self._without_exact_expectation(baseline)
        comparison = compare_bench(baseline, new)
        assert comparison.ok
        assert "exact_expectation" not in {r.metric for r in comparison.rows}
        new["benchmarks"]["fig3"]["exact_engine"]["mean_cycles"] += 0.5
        drifts = compare_bench(baseline, new).value_drifts
        assert [d.split()[0] for d in drifts] == [
            "fig3.exact_engine.mean_cycles"
        ]


class TestCompareFiles:
    def test_file_round_trip(self, tmp_path):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_report(0.1)))
        new_path.write_text(json.dumps(_report(0.5)))
        comparison = compare_bench_files(
            str(old_path), str(new_path), threshold=0.2
        )
        assert not comparison.ok


class TestCli:
    def test_compare_to_exits_nonzero_on_regression(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_report(0.1)))
        new_path.write_text(json.dumps(_report(0.9)))
        code = main(
            [
                "bench",
                "--compare", str(old_path),
                "--compare-to", str(new_path),
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_to_clean_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(_report(0.1)))
        code = main(
            [
                "bench",
                "--compare", str(old_path),
                "--compare-to", str(old_path),
            ]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out


class TestCompletionTolerance:
    """Schema-3 ``completion`` fields vs schema-2 float-p baselines."""

    def test_schema2_baseline_matches_schema3_bernoulli(self):
        old = _report(0.1)  # schema 2: only a float p
        new = _report(0.1, schema=3, completion="bernoulli:0.7")
        comparison = compare_bench(old, new)
        assert comparison.ok

    def test_value_drift_still_detected_across_schemas(self):
        old = _report(0.1)
        new = _report(0.1, mc_mean=11.0, schema=3, completion="bernoulli:0.7")
        comparison = compare_bench(old, new)
        assert any(
            "mean_cycles" in drift for drift in comparison.value_drifts
        )

    def test_different_completions_diff_on_timings_only(self):
        old = _report(0.1)
        new = _report(
            0.1,
            mc_mean=12.5,
            exact_value=9.9,
            schema=3,
            completion="markov:0.7,0.5",
        )
        new["p"] = "markov:0.7,0.5"
        comparison = compare_bench(old, new)
        assert not comparison.value_drifts
        assert comparison.ok

    def test_report_completion_derives_bernoulli_from_float_p(self):
        from repro.perf.bench import _report_completion

        assert _report_completion({"p": 0.7}) == "bernoulli:0.7"
        assert _report_completion({"p": 0.7, "completion": "x"}) == "x"
        assert (
            _report_completion({"p": "markov:0.7,0.5"}) == "markov:0.7,0.5"
        )
        assert _report_completion({}) is None
