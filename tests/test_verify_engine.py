"""Tests for the verification engine surface: reports, baselines,
the ``verify-artifacts`` pipeline pass and the ``repro lint`` CLI."""

import dataclasses
import json

import pytest

from repro.benchmarks.registry import all_benchmarks, benchmark
from repro.cli import main
from repro.errors import PipelineError, VerificationError
from repro.perf.cache import SynthesisCache
from repro.pipeline import run_synthesis_pipeline
from repro.verify import (
    Diagnostic,
    DiagnosticReport,
    gate_report,
    lint_benchmark,
    lint_result,
    load_baseline,
    severity_rank,
    write_baseline,
)
from repro.verify.baseline import baseline_path


def make_diag(rule="RTL003", severity="warning", location="net x"):
    return Diagnostic(
        rule=rule,
        severity=severity,
        artifact="rtl:control_top",
        location=location,
        message=f"{location} msg",
        hint="",
    )


# ----------------------------------------------------------------------
# Diagnostic reports
# ----------------------------------------------------------------------
class TestDiagnosticReport:
    def test_sorted_and_deduplicated(self):
        a = make_diag(severity="warning", location="net b")
        b = make_diag(rule="LIVE002", severity="error", location="net a")
        report = DiagnosticReport.build("d", [a, b, a])
        assert len(report.diagnostics) == 2
        assert report.diagnostics[0].rule == "LIVE002"  # errors first
        assert report.count("error") == 1
        assert report.has_errors

    def test_at_least(self):
        report = DiagnosticReport.build(
            "d",
            [
                make_diag(severity="warning"),
                make_diag(
                    rule="FSM006", severity="info", location="input i"
                ),
            ],
        )
        assert len(report.at_least("info")) == 2
        assert len(report.at_least("warning")) == 1
        assert report.at_least("error") == ()

    def test_json_round_trip_and_byte_stability(self):
        report = DiagnosticReport.build(
            "d", [make_diag(), make_diag(rule="LIVE002", severity="error")]
        )
        text = report.to_json()
        again = DiagnosticReport.from_json(text)
        assert again == report
        assert again.to_json() == text

    def test_severity_rank_validates(self):
        assert severity_rank("error") < severity_rank("warning")
        with pytest.raises(VerificationError, match="unknown severity"):
            severity_rank("fatal")


# ----------------------------------------------------------------------
# Baselines and the gate
# ----------------------------------------------------------------------
class TestBaselineGate:
    def test_write_load_round_trip(self, tmp_path):
        report = DiagnosticReport.build("design", [make_diag()])
        path = write_baseline(tmp_path, report)
        assert path == baseline_path(tmp_path, "design")
        assert load_baseline(tmp_path, "design") == report
        assert load_baseline(tmp_path, "other") is None

    def test_corrupt_baseline_rejected(self, tmp_path):
        baseline_path(tmp_path, "bad").write_text("{nope")
        with pytest.raises(VerificationError, match="corrupt"):
            load_baseline(tmp_path, "bad")

    def test_new_finding_fails_gate(self):
        fresh = DiagnosticReport.build(
            "d", [make_diag(rule="LIVE002", severity="error")]
        )
        gate = gate_report(fresh, None, fail_on="error")
        assert not gate.passed
        assert len(gate.new) == 1

    def test_known_finding_passes_gate(self):
        finding = make_diag(rule="LIVE002", severity="error")
        fresh = DiagnosticReport.build("d", [finding])
        baseline = DiagnosticReport.build("d", [finding])
        gate = gate_report(fresh, baseline, fail_on="error")
        assert gate.passed
        assert gate.known == (finding,)

    def test_resolved_findings_reported(self):
        finding = make_diag()
        baseline = DiagnosticReport.build("d", [finding])
        fresh = DiagnosticReport.build("d", [])
        gate = gate_report(fresh, baseline, fail_on="warning")
        assert gate.passed
        assert gate.resolved == (finding,)

    def test_fail_on_never_only_checks_bytes(self):
        fresh = DiagnosticReport.build(
            "d", [make_diag(rule="LIVE002", severity="error")]
        )
        gate = gate_report(fresh, None, fail_on="never", check_bytes=True)
        assert gate.new == ()
        assert gate.byte_stable is False
        assert not gate.passed

    def test_severity_threshold(self):
        fresh = DiagnosticReport.build("d", [make_diag()])  # warning
        assert gate_report(fresh, None, fail_on="error").passed
        assert not gate_report(fresh, None, fail_on="warning").passed


# ----------------------------------------------------------------------
# Committed benchmark baselines (the repository contract)
# ----------------------------------------------------------------------
class TestCommittedBaselines:
    def test_every_benchmark_is_error_clean(self, repo_baseline_dir):
        for entry in all_benchmarks():
            report = lint_benchmark(entry.name)
            assert not report.has_errors, report.render()

    def test_baselines_byte_identical(self, repo_baseline_dir):
        for entry in all_benchmarks():
            path = baseline_path(repo_baseline_dir, entry.name)
            assert path.is_file(), f"missing baseline {path}"
            fresh = lint_benchmark(entry.name)
            assert path.read_text() == fresh.to_json() + "\n", (
                f"baseline {path} is stale; regenerate with "
                f"`repro lint --write-baseline`"
            )

    @pytest.fixture(scope="class")
    def repo_baseline_dir(self):
        import pathlib

        directory = (
            pathlib.Path(__file__).resolve().parent.parent
            / "baselines"
            / "lint"
        )
        assert directory.is_dir()
        return directory


# ----------------------------------------------------------------------
# The verify-artifacts pipeline pass
# ----------------------------------------------------------------------
class TestVerifyPass:
    def test_diagnostics_in_manifest_and_cache(self, tmp_path):
        entry = benchmark("fig2")
        cache = SynthesisCache(tmp_path)

        def run():
            _, manifest = run_synthesis_pipeline(
                entry.factory(),
                entry.allocation(),
                upto="verify-artifacts",
                cache=cache,
            )
            return manifest.record_for("verify-artifacts")

        cold = run()
        assert cold.status == "computed"
        assert cold.diagnostics
        assert all(
            set(d) >= {"rule", "severity", "artifact", "message"}
            for d in cold.diagnostics
        )
        warm = run()
        assert warm.status == "cached"
        assert list(warm.diagnostics) == list(cold.diagnostics)

    def test_default_flow_stops_before_verify(self):
        entry = benchmark("fig2")
        _, manifest = run_synthesis_pipeline(
            entry.factory(), entry.allocation()
        )
        names = [r.name for r in manifest.records]
        assert "verify-artifacts" not in names

    def test_strict_raises_on_errors(self, monkeypatch):
        import repro.verify.engine as engine

        def dirty(store, name=None):
            return DiagnosticReport.build(
                name or "d",
                [make_diag(rule="LIVE002", severity="error")],
            )

        monkeypatch.setattr(engine, "lint_store", dirty)
        entry = benchmark("fig2")
        with pytest.raises(PipelineError, match="error finding"):
            run_synthesis_pipeline(
                entry.factory(),
                entry.allocation(),
                upto="verify-artifacts",
                options={"verify-artifacts": {"strict": True}},
            )


# ----------------------------------------------------------------------
# The repro lint CLI
# ----------------------------------------------------------------------
class TestLintCli:
    def test_single_benchmark_text(self, tmp_path, capsys):
        code = main(
            ["lint", "fig2", "--baseline-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lint fig2:" in out
        assert "gate fig2:" in out

    def test_json_output_file(self, tmp_path):
        out_file = tmp_path / "lint.json"
        code = main(
            [
                "lint",
                "fig2",
                "--baseline-dir",
                str(tmp_path),
                "--format",
                "json",
                "-o",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["format"] == 1
        assert payload["reports"][0]["design"] == "fig2"

    def test_warning_gate_without_baseline_fails(self, tmp_path):
        code = main(
            [
                "lint",
                "fig2",
                "--baseline-dir",
                str(tmp_path),
                "--fail-on",
                "warning",
            ]
        )
        assert code == 1

    def test_write_then_check_baseline(self, tmp_path):
        assert (
            main(
                [
                    "lint",
                    "fig2",
                    "--baseline-dir",
                    str(tmp_path),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "lint",
                    "fig2",
                    "--baseline-dir",
                    str(tmp_path),
                    "--check-baseline",
                    "--fail-on",
                    "warning",
                ]
            )
            == 0
        )
        # corrupt a byte: the drift gate must fail
        path = baseline_path(tmp_path, "fig2")
        path.write_text(path.read_text() + "\n")
        assert (
            main(
                [
                    "lint",
                    "fig2",
                    "--baseline-dir",
                    str(tmp_path),
                    "--check-baseline",
                ]
            )
            == 1
        )

    def test_check_baseline_missing_outside_repo_root(
        self, tmp_path, monkeypatch, capsys
    ):
        # the default --baseline-dir is relative: from another cwd it
        # names no file, which is its own failure, not "drift"
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "fig2", "--check-baseline"]) == 1
        out = capsys.readouterr().out
        looked_for = tmp_path / "baselines" / "lint" / "fig2.json"
        assert f"no baseline file at {looked_for}" in out
        assert "--baseline-dir" in out
        assert "--write-baseline" not in out
        assert "not byte-identical" not in out
        assert not (tmp_path / "baselines").exists()

    def test_allocation_requires_single_benchmark(self, tmp_path):
        code = main(
            [
                "lint",
                "fig2",
                "fig3",
                "--allocation",
                "mul:2T,add:1",
                "--baseline-dir",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_custom_allocation(self, tmp_path, capsys):
        code = main(
            [
                "lint",
                "fig2",
                "--allocation",
                "mul:2T,add:1",
                "--baseline-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "lint fig2:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# lint_result naming
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_lint_result_default_name(self, fig2_result):
        report = lint_result(fig2_result)
        assert report.design == fig2_result.dfg.name

    def test_gate_result_is_frozen(self):
        gate = gate_report(DiagnosticReport.build("d", []), None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gate.design = "other"
