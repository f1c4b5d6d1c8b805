"""Tests for the command-line interface."""

from repro.cli import main


class TestBenchmarksCommand:
    def test_lists_registry(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "diffeq" in out
        assert "ar_lattice" in out


class TestSynthesizeCommand:
    def test_prints_artifacts(self, capsys):
        assert main(["synthesize", "fir3"]) == 0
        out = capsys.readouterr().out
        assert "schedule" in out
        assert "DIST" in out and "CENT-SYNC" in out

    def test_custom_allocation(self, capsys):
        assert (
            main(["synthesize", "fir3", "--allocation", "mul:3T,add:2"]) == 0
        )
        out = capsys.readouterr().out
        assert "TM3" in out

    def test_writes_verilog_and_dot(self, tmp_path, capsys):
        verilog = tmp_path / "out.v"
        dot = tmp_path / "out.dot"
        assert (
            main(
                [
                    "synthesize",
                    "fig3",
                    "--verilog",
                    str(verilog),
                    "--dot",
                    str(dot),
                ]
            )
            == 0
        )
        assert "module" in verilog.read_text()
        assert "digraph" in dot.read_text()

    def test_unknown_benchmark_fails_cleanly(self, capsys):
        assert main(["synthesize", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_allocation_fails_cleanly(self, capsys):
        assert main(["synthesize", "fir3", "--allocation", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err


class TestPipelineCommand:
    def test_list_shows_passes_and_registries(self, capsys):
        assert main(["pipeline", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("validate", "schedule", "order", "bind", "taubm",
                     "distributed", "cent-fsms"):
            assert name in out
        assert "force-directed" in out
        assert "cent-sync" in out

    def test_run_renders_manifest(self, capsys):
        assert main(["pipeline", "fir3"]) == 0
        out = capsys.readouterr().out
        assert "distributed" in out
        assert "computed" in out
        assert "cache:" in out

    def test_upto_stops_early(self, capsys):
        assert main(["pipeline", "fir3", "--to", "order"]) == 0
        out = capsys.readouterr().out
        assert "order" in out and "bind" not in out

    def test_manifest_file_written(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "manifest.json"
        assert main(["pipeline", "fir3", "--manifest", str(manifest)]) == 0
        data = json.loads(manifest.read_text())
        assert [p["pass"] for p in data["passes"]] == [
            "validate", "schedule", "order", "bind", "taubm", "distributed",
        ]
        assert all("wall_time_s" in p for p in data["passes"])

    def test_assert_all_cached_cold_then_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        # cold run: nothing cached yet, the assertion fails
        assert main(
            ["pipeline", "fir3", "--cache-dir", cache_dir,
             "--assert-all-cached"]
        ) == 1
        assert "error:" in capsys.readouterr().err
        # warm run: every pass replays from the cache directory
        assert main(
            ["pipeline", "fir3", "--cache-dir", cache_dir,
             "--assert-all-cached"]
        ) == 0
        assert "cached" in capsys.readouterr().out

    def test_missing_benchmark_rejected(self, capsys):
        assert main(["pipeline"]) == 2
        assert "benchmark" in capsys.readouterr().err

    def test_scheduler_and_objective_flags(self, capsys):
        assert main(
            ["pipeline", "diffeq", "--scheduler", "force-directed",
             "--objective", "communication", "--to", "bind"]
        ) == 0
        assert "bind" in capsys.readouterr().out


class TestSchedulerFlag:
    def test_synthesize_force_directed(self, capsys):
        assert main(
            ["synthesize", "fir3", "--scheduler", "force-directed"]
        ) == 0
        assert "schedule" in capsys.readouterr().out


class TestSimulateCommand:
    def test_reports_latency(self, capsys):
        assert main(["simulate", "fir3", "--p", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "3 cycles = 45 ns" in out

    def test_trace_output(self, capsys):
        assert main(["simulate", "fir3", "--trace"]) == 0
        assert "cycle" in capsys.readouterr().out

    def test_writes_vcd(self, tmp_path, capsys):
        vcd = tmp_path / "wave.vcd"
        assert main(["simulate", "fir3", "--vcd", str(vcd)]) == 0
        assert "$enddefinitions" in vcd.read_text()

    def test_pipelined_run(self, capsys):
        assert main(["simulate", "fir3", "--iterations", "4"]) == 0
        assert "throughput" in capsys.readouterr().out


class TestAnalysisCommands:
    def test_table1(self, capsys):
        assert main(["table1", "fig3"]) == 0
        assert "Area(Com./Seq.)" in capsys.readouterr().out

    def test_distribution(self, capsys):
        assert main(["distribution", "fir3", "--p", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "P99 budget" in out

    def test_exact_scheduler_flag(self, capsys):
        assert main(["simulate", "iir2", "--scheduler", "exact", "--p", "1.0"]) == 0
        assert "5 cycles" in capsys.readouterr().out


class TestUtilizationFlag:
    def test_simulate_prints_utilization(self, capsys):
        assert main(["simulate", "fir3", "--utilization"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out and "TM1" in out


class TestExperimentsCommand:
    def test_runs_named_driver(self, capsys):
        assert main(["experiments", "pipeline"]) == 0
        assert "X4" in capsys.readouterr().out

    def test_workers_flag(self, capsys):
        assert main(["experiments", "fig4", "-j", "2"]) == 0
        assert "CENT" in capsys.readouterr().out

    def test_unknown_driver_fails_cleanly(self, capsys):
        assert main(["experiments", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_dir_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(
            ["experiments", "pipeline", "--cache-dir", str(cache_dir)]
        ) == 0
        assert list(cache_dir.glob("*.syn.json"))


class TestBenchCommand:
    def test_quick_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        assert (
            main(
                ["bench", "fig3", "--quick", "--trials", "8", "-j", "2",
                 "-o", str(out)]
            )
            == 0
        )
        assert "repro bench" in capsys.readouterr().out
        assert "fig3" in out.read_text()

    def test_cache_dir_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        out = tmp_path / "BENCH.json"
        assert (
            main(
                ["bench", "fig3", "--quick", "--trials", "8", "-j", "2",
                 "--cache-dir", str(cache_dir), "-o", str(out)]
            )
            == 0
        )
        assert list(cache_dir.glob("*.syn.json"))


class TestFaultsWorkersFlag:
    def test_parallel_campaign_runs(self, capsys):
        assert main(["faults", "fig2", "--trials", "4", "-j", "2"]) == 0
        assert "fault campaign" in capsys.readouterr().out


class TestReportCommand:
    def test_quick_report_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["report", "--quick", "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# Reproduction report" in text
        assert "Table 2" in text
        assert "X12" in text
