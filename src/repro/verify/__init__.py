"""Static verification of synthesis artifacts and generated RTL.

The dynamic checks of :mod:`repro.sim` and :mod:`repro.faults` catch
defects on the stimuli we happen to run; this package proves structural
properties for *all* inputs, without simulating: controller liveness
(the CC-handshake marked graph), FSM guard logic, schedule/binding/
TAUBM consistency and RTL netlist hygiene.  Findings are structured
:class:`Diagnostic` records with byte-stable JSON reports, wired into
the synthesis pipeline (``verify-artifacts`` pass), the CLI
(``repro lint``) and CI (baseline gates).

Phase 2 (:mod:`.modelcheck`) goes beyond per-artifact structure: an
explicit-state reachability engine explores the *composed* controller
network under all realizable completion schedules and proves the
MC-DEAD / MC-RACE / MC-REF families, rendering violations as the same
byte-stable diagnostics plus replayable counterexample stimulus
(``repro check``, the ``model-check`` pipeline pass and the
``baselines/check`` CI gate).
"""

from __future__ import annotations

from .baseline import (
    DEFAULT_BASELINE_DIR,
    DEFAULT_CHECK_BASELINE_DIR,
    GateResult,
    gate_report,
    load_baseline,
    write_baseline,
)
from .diagnostics import (
    SEVERITIES,
    Diagnostic,
    DiagnosticReport,
    severity_rank,
)
from .engine import (
    lint_benchmark,
    lint_result,
    lint_store,
    lint_target,
)
from .fsm_checks import lint_fsm
from .modelcheck import (
    DEFAULT_MAX_FRONTIER,
    DEFAULT_MAX_STATES,
    ModelCheckResult,
    check_benchmark,
    check_result,
    check_store,
    check_target,
)
from .rules import RULES, Rule, rule, rule_table
from .target import LintTarget

__all__ = [
    "DEFAULT_BASELINE_DIR",
    "DEFAULT_CHECK_BASELINE_DIR",
    "DEFAULT_MAX_FRONTIER",
    "DEFAULT_MAX_STATES",
    "Diagnostic",
    "DiagnosticReport",
    "GateResult",
    "LintTarget",
    "ModelCheckResult",
    "RULES",
    "Rule",
    "SEVERITIES",
    "check_benchmark",
    "check_result",
    "check_store",
    "check_target",
    "gate_report",
    "lint_benchmark",
    "lint_fsm",
    "lint_result",
    "lint_store",
    "lint_target",
    "load_baseline",
    "rule",
    "rule_table",
    "severity_rank",
    "write_baseline",
]
