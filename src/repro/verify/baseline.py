"""Committed lint baselines and the severity gate.

A baseline is the accepted :class:`DiagnosticReport` of one design,
committed as ``baselines/lint/<design>.json`` (byte-stable, trailing
newline).  The gate compares a fresh report against it: *new*
diagnostics at or above the ``fail_on`` severity fail the run, known
ones are accepted, and resolved ones are reported so the baseline can
be tightened.  ``check_bytes`` additionally demands the serialized
report be byte-identical to the committed file — the CI drift gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import VerificationError
from .diagnostics import (
    Diagnostic,
    DiagnosticReport,
    severity_rank,
)

#: repository-relative default location of committed lint baselines.
DEFAULT_BASELINE_DIR = "baselines/lint"

#: repository-relative default location of model-check baselines.
DEFAULT_CHECK_BASELINE_DIR = "baselines/check"


def baseline_path(directory: "str | Path", design: str) -> Path:
    return Path(directory) / f"{design}.json"


def write_baseline(
    directory: "str | Path", report: DiagnosticReport
) -> Path:
    """Persist a report as the accepted baseline of its design."""
    path = baseline_path(directory, report.design)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.to_json() + "\n", encoding="utf-8")
    return path


def load_baseline(
    directory: "str | Path", design: str
) -> "DiagnosticReport | None":
    """The committed baseline of a design, or ``None`` if absent."""
    path = baseline_path(directory, design)
    if not path.is_file():
        return None
    try:
        return DiagnosticReport.from_json(
            path.read_text(encoding="utf-8")
        )
    except (ValueError, KeyError) as exc:
        raise VerificationError(
            f"corrupt lint baseline {path}: {exc}"
        ) from exc


@dataclass(frozen=True)
class GateResult:
    """Outcome of gating one report against its baseline."""

    design: str
    fail_on: str
    new: tuple[Diagnostic, ...]
    known: tuple[Diagnostic, ...]
    resolved: tuple[Diagnostic, ...]
    byte_stable: "bool | None" = None
    #: absolute path of a baseline the drift gate required but did not find
    missing_baseline: "str | None" = None

    @property
    def passed(self) -> bool:
        ok = not self.new and self.missing_baseline is None
        if self.byte_stable is not None:
            ok = ok and self.byte_stable
        return ok

    def render(self) -> str:
        parts = [
            f"gate {self.design}: "
            f"{len(self.new)} new / {len(self.known)} known / "
            f"{len(self.resolved)} resolved at fail-on={self.fail_on}"
        ]
        for d in self.new:
            parts.append(f"  NEW {d.render()}")
        for d in self.resolved:
            parts.append(f"  RESOLVED {d.render()}")
        if self.missing_baseline is not None:
            parts.append(
                f"  no baseline file at {self.missing_baseline}; point "
                f"--baseline-dir at the committed baselines (a relative "
                f"directory is read from the current directory)"
            )
        if self.byte_stable is False:
            parts.append(
                "  baseline file is not byte-identical to the fresh "
                "report (regenerate with --write-baseline)"
            )
        return "\n".join(parts)


def gate_report(
    report: DiagnosticReport,
    baseline: "DiagnosticReport | None",
    fail_on: str = "error",
    check_bytes: bool = False,
) -> GateResult:
    """Compare a fresh report against the accepted baseline.

    ``fail_on`` is the minimum severity that can fail the gate
    (``"never"`` disables severity gating entirely, leaving only the
    optional byte-stability check).
    """
    if fail_on == "never":
        gated: tuple[Diagnostic, ...] = ()
    else:
        severity_rank(fail_on)  # validate the threshold name
        gated = report.at_least(fail_on)
    accepted = set(baseline.diagnostics) if baseline else set()
    fresh = set(report.diagnostics)
    new = tuple(d for d in gated if d not in accepted)
    known = tuple(d for d in report.diagnostics if d in accepted)
    resolved = tuple(
        sorted(
            (d for d in accepted - fresh),
            key=lambda d: d.sort_key,
        )
    )
    byte_stable: "bool | None" = None
    if check_bytes:
        byte_stable = (
            baseline is not None
            and baseline.to_json() == report.to_json()
        )
    return GateResult(
        design=report.design,
        fail_on=fail_on,
        new=new,
        known=known,
        resolved=resolved,
        byte_stable=byte_stable,
    )


def gate_against_baseline(
    report: DiagnosticReport,
    directory: "str | Path",
    fail_on: str = "error",
    check_baseline: bool = False,
) -> GateResult:
    """Gate a fresh report against its baseline in ``directory``.

    ``check_baseline`` is the CLI drift gate: the committed file must
    exist and hold exactly the fresh report's bytes.  A missing file is
    its own failure naming the absolute path looked for, never drift.
    """
    baseline = load_baseline(directory, report.design)
    gate = gate_report(report, baseline, fail_on=fail_on)
    if not check_baseline:
        return gate
    path = baseline_path(directory, report.design)
    if baseline is None:
        return replace(gate, missing_baseline=str(path.resolve()))
    stable = path.read_text(encoding="utf-8") == report.to_json() + "\n"
    return replace(gate, byte_stable=stable)
