"""Unit tests for the static verification rules (repro.verify).

Pins the rule catalogue, each rule family's trigger conditions, and —
critically — the fault-class cross-check: every fault kind the dynamic
injectors of :mod:`repro.faults` model must have a structural shadow
that trips a named lint rule.
"""

from dataclasses import replace

import pytest

import repro.control.verilog_top as verilog_top
import repro.verify.liveness as liveness_mod
from repro.analysis.marked_graph import token_free_cycle
from repro.benchmarks import paper_fig2_dfg
from repro.control.verilog_top import distributed_to_verilog
from repro.errors import VerificationError
from repro.fsm.model import FSM, make_transition
from repro.verify import (
    RULES,
    LintTarget,
    lint_fsm,
    lint_target,
    rule,
    rule_table,
)
from repro.verify.fsm_checks import check_fsms
from repro.verify.liveness import check_liveness
from repro.verify.rtl import check_rtl, fsm_comb_dependencies, parse_verilog
from repro.verify.rules import diag
from repro.verify.schedule_checks import check_schedule

from structural_faults import (
    STRUCTURAL_FAULTS,
    _raw_schedule,
    covered_fault_kinds,
    injector_fault_kinds,
    run_selftest,
)


@pytest.fixture(scope="module")
def fig2_target(fig2_result) -> LintTarget:
    return LintTarget.from_result(fig2_result, name="fig2")


def rules_of(findings) -> set:
    return {d.rule for d in findings}


# ----------------------------------------------------------------------
# The rule registry
# ----------------------------------------------------------------------
class TestRuleRegistry:
    def test_ids_unique(self):
        ids = [r.rule_id for r in RULES]
        assert len(ids) == len(set(ids))

    def test_severities_valid(self):
        assert {r.severity for r in RULES} <= {"error", "warning", "info"}

    def test_every_rule_documented(self):
        table = rule_table()
        for r in RULES:
            assert r.rule_id in table

    def test_unknown_rule_rejected(self):
        with pytest.raises(VerificationError, match="unknown rule"):
            rule("NOPE999")

    def test_diag_takes_severity_from_registry(self):
        d = diag("LIVE001", "distributed", "x", "msg")
        assert d.severity == "error"


# ----------------------------------------------------------------------
# LIVE: controller liveness
# ----------------------------------------------------------------------
class TestLivenessRules:
    def test_clean_design_has_no_live_findings(self, fig2_target):
        assert check_liveness(fig2_target) == []

    def test_token_free_cycle_detected(self):
        edges = [("a", "b", 0), ("b", "c", 0), ("c", "a", 0)]
        cycle = token_free_cycle(edges)
        assert cycle is not None
        assert set(cycle) == {"a", "b", "c"}

    def test_wrap_token_breaks_cycle(self):
        edges = [("a", "b", 0), ("b", "c", 0), ("c", "a", 1)]
        assert token_free_cycle(edges) is None

    def test_live001_names_starved_net(self, fig2_target, monkeypatch):
        ops = list(fig2_target.bound.binding)[:2]
        monkeypatch.setattr(
            liveness_mod,
            "handshake_edges",
            lambda bound: ((ops[0], ops[1], 0), (ops[1], ops[0], 0)),
        )
        findings = check_liveness(fig2_target)
        live001 = [d for d in findings if d.rule == "LIVE001"]
        assert len(live001) == 1
        assert "token-free cycle" in live001[0].message
        assert "CC_" in live001[0].message

    def test_live002_missing_producer(self, fig2_target):
        fault = next(
            f for f in STRUCTURAL_FAULTS if f.kind == "dropped-pulse"
        )
        findings = check_liveness(fault.mutate(fig2_target))
        assert "LIVE002" in rules_of(findings)

    def test_live004_duplicate_producer(self, fig2_target):
        fault = next(
            f for f in STRUCTURAL_FAULTS if f.kind == "spurious-pulse"
        )
        findings = check_liveness(fault.mutate(fig2_target))
        assert "LIVE004" in rules_of(findings)


# ----------------------------------------------------------------------
# FSM: per-controller structure
# ----------------------------------------------------------------------
def fsm_of(transitions, states=("A", "B"), inputs=("go",),
           outputs=("tick",), initial="A") -> FSM:
    return FSM(
        name="t",
        states=tuple(states),
        initial=initial,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        transitions=tuple(transitions),
    )


class TestFsmRules:
    def test_clean_controllers(self, fig2_target):
        assert check_fsms(fig2_target) == []

    def test_fsm001_unreachable_state(self):
        fsm = fsm_of(
            [
                make_transition("A", "A", {}, ("tick",)),
                make_transition("B", "A", {}),
            ]
        )
        findings = lint_fsm(fsm)
        assert "FSM001" in rules_of(findings)

    def test_fsm002_incomplete_guards(self):
        fsm = fsm_of(
            [
                make_transition("A", "B", {"go": True}, ("tick",)),
                make_transition("B", "A", {}),
            ]
        )
        findings = lint_fsm(fsm)
        wedged = [d for d in findings if d.rule == "FSM002"]
        assert len(wedged) == 1
        assert "go'" in wedged[0].message

    def test_fsm002_no_outgoing(self):
        fsm = fsm_of([make_transition("A", "B", {})])
        findings = lint_fsm(fsm)
        assert any(
            d.rule == "FSM002" and "no outgoing" in d.message
            for d in findings
        )

    def test_fsm003_overlapping_guards(self):
        fsm = fsm_of(
            [
                make_transition("A", "B", {"go": True}, ("tick",)),
                make_transition("A", "A", {}),
                make_transition("B", "A", {}),
            ]
        )
        findings = lint_fsm(fsm)
        overlap = [d for d in findings if d.rule == "FSM003"]
        assert len(overlap) == 1
        assert "ambiguous" in overlap[0].message

    def test_fsm004_dead_completion_guard(self):
        fsm = fsm_of(
            [
                make_transition("A", "B", {"CC_x": True}, ("tick",)),
                make_transition("A", "A", {"CC_x": False}),
                make_transition("B", "A", {}),
            ],
            inputs=("CC_x",),
        )
        assert "FSM004" in rules_of(lint_fsm(fsm, available=set()))
        assert "FSM004" not in rules_of(lint_fsm(fsm, available={"CC_x"}))
        # standalone lint (no design context) skips the rule
        assert "FSM004" not in rules_of(lint_fsm(fsm))

    def test_fsm005_output_never_asserted(self):
        fsm = fsm_of(
            [
                make_transition("A", "B", {}),
                make_transition("B", "A", {}),
            ],
            outputs=("tick",),
        )
        assert "FSM005" in rules_of(lint_fsm(fsm))

    def test_fsm006_input_never_referenced(self):
        fsm = fsm_of(
            [
                make_transition("A", "B", {}, ("tick",)),
                make_transition("B", "A", {}),
            ]
        )
        assert "FSM006" in rules_of(lint_fsm(fsm))


# ----------------------------------------------------------------------
# SCH: schedule / binding / TAUBM consistency
# ----------------------------------------------------------------------
class TestScheduleRules:
    def test_clean_design(self, fig2_target):
        assert check_schedule(fig2_target) == []

    def test_sch001_precedence_violation(self, fig2_target):
        u, v = next(iter(fig2_target.dfg.edges()))
        start = dict(fig2_target.schedule.start)
        start[v] = start[u]
        corrupted = replace(
            fig2_target,
            schedule=_raw_schedule(fig2_target.dfg, start),
        )
        findings = check_schedule(corrupted)
        assert "SCH001" in rules_of(findings)

    def test_sch002_step_over_subscription(self, fig2_target):
        # cram every operation into step 0
        start = {op: 0 for op in fig2_target.schedule.start}
        corrupted = replace(
            fig2_target,
            schedule=_raw_schedule(fig2_target.dfg, start),
        )
        findings = check_schedule(corrupted)
        assert "SCH002" in rules_of(findings)

    def test_sch004_unit_slot_conflict(self, fig2_target):
        fault = next(
            f for f in STRUCTURAL_FAULTS if f.kind == "intermittent-slow"
        )
        findings = check_schedule(fault.mutate(fig2_target))
        assert "SCH004" in rules_of(findings)

    def test_sch005_chain_order_inversion(self, fig2_target):
        for _, chain in fig2_target.order.all_chains():
            if len(chain) >= 2:
                u, v = chain[0], chain[1]
                break
        start = dict(fig2_target.schedule.start)
        start[u], start[v] = start[v] + 1, start[u]
        corrupted = replace(
            fig2_target,
            schedule=_raw_schedule(fig2_target.dfg, start),
        )
        assert "SCH005" in rules_of(check_schedule(corrupted))

    def test_sch006_missing_tau_extension(self, fig2_target):
        fault = next(
            f
            for f in STRUCTURAL_FAULTS
            if f.kind == "delayed-completion"
        )
        findings = check_schedule(fault.mutate(fig2_target))
        sch006 = [d for d in findings if d.rule == "SCH006"]
        assert sch006
        assert any("extension" in d.message for d in sch006)

    def test_sch006_partition_gap(self, fig2_target):
        from repro.scheduling.schedule import TaubmSchedule

        taubm = fig2_target.taubm
        corrupted = replace(
            fig2_target,
            taubm=TaubmSchedule(base=taubm.base, steps=taubm.steps[:-1]),
        )
        findings = check_schedule(corrupted)
        assert any(
            d.rule == "SCH006" and "partition" in d.location
            for d in findings
        )


# ----------------------------------------------------------------------
# RTL: generated Verilog lint
# ----------------------------------------------------------------------
TOP_TEMPLATE = """\
module leaf (
    input  wire clk,
    input  wire rst_n,
    input  wire a,
    output wire y
);
  wire y = a;
endmodule

module control_top (
    input  wire clk,
    input  wire rst_n,
    input  wire a,
    output wire z
);
{body}
endmodule
"""


def top_with(body: str) -> str:
    return TOP_TEMPLATE.format(body=body)


class TestRtlRules:
    def test_clean_design_no_errors(self, fig2_target):
        findings = check_rtl(fig2_target)
        assert all(
            rule(d.rule).severity != "error" for d in findings
        )

    def test_parser_roundtrip(self, fig2_target):
        modules = parse_verilog(fig2_target.rtl())
        names = [m.name for m in modules]
        assert "control_top" in names
        top = next(m for m in modules if m.name == "control_top")
        assert top.instances
        assert top.port_direction("clk") == "input"

    def _lint_text(self, fig2_target, text):
        # a fresh unit whose rendering is the hand-written text
        target = fig2_target.with_controllers(fig2_target.controllers)
        target.distributed._verilog["control_top"] = text
        return check_rtl(target)

    def test_lint_and_caller_share_one_rendering(self, fig2_target):
        target = fig2_target.with_controllers(fig2_target.controllers)
        text = target.rtl()
        assert distributed_to_verilog(target.distributed) is text
        renamed = target.with_controllers(
            {
                unit: replace(fsm, name=f"{fsm.name}_b")
                for unit, fsm in target.controllers.items()
            }
        )
        assert renamed.rtl() is distributed_to_verilog(renamed.distributed)
        assert renamed.rtl() != text
        assert target.rtl() is text

    def test_failed_render_keeps_nothing(self, fig2_target, monkeypatch):
        target = fig2_target.with_controllers(fig2_target.controllers)
        render = verilog_top._render
        monkeypatch.setattr(
            verilog_top,
            "_render",
            lambda unit, top: (_ for _ in ()).throw(KeyError("CC_boom")),
        )
        assert rules_of(check_rtl(target)) == {"RTL000"}
        monkeypatch.setattr(verilog_top, "_render", render)
        assert "RTL000" not in rules_of(check_rtl(target))

    def test_rtl001_multiple_drivers(self, fig2_target):
        text = top_with(
            "  wire n = a;\n  wire z = n;\n  leaf u0 (\n"
            "    .clk(clk),\n    .rst_n(rst_n),\n    .a(a),\n"
            "    .y(n)\n  );"
        )
        findings = self._lint_text(fig2_target, text)
        assert "RTL001" in rules_of(findings)

    def test_rtl002_read_but_undriven(self, fig2_target):
        text = top_with("  wire n;\n  wire z = n & a;")
        findings = self._lint_text(fig2_target, text)
        assert "RTL002" in rules_of(findings)

    def test_rtl003_driven_but_unread(self, fig2_target):
        text = top_with("  wire n = a;\n  wire z = a;")
        findings = self._lint_text(fig2_target, text)
        assert "RTL003" in rules_of(findings)

    def test_rtl004_duplicate_declaration(self, fig2_target):
        text = top_with("  wire n = a;\n  wire n = a;\n  wire z = n;")
        findings = self._lint_text(fig2_target, text)
        assert "RTL004" in rules_of(findings)

    def test_rtl005_comb_loop_via_assigns(self, fig2_target):
        text = top_with(
            "  wire p = q | a;\n  wire q = p;\n  wire z = p;"
        )
        findings = self._lint_text(fig2_target, text)
        loops = [d for d in findings if d.rule == "RTL005"]
        assert loops
        assert "combinational cycle" in loops[0].message

    def test_rtl000_generation_failure(self, fig2_target, monkeypatch):
        target = fig2_target.with_controllers(fig2_target.controllers)
        monkeypatch.setattr(
            LintTarget,
            "rtl",
            lambda self: (_ for _ in ()).throw(KeyError("CC_boom")),
        )
        findings = check_rtl(target)
        assert rules_of(findings) == {"RTL000"}

    def test_fsm_comb_dependencies(self, fig2_result):
        fsm = fig2_result.distributed.controller("TM1")
        deps = fsm_comb_dependencies(fsm)
        assert deps
        # the CSG completion input feeds some Mealy output
        assert any(src.startswith("C_") for src, _ in deps)

    def test_no_multiple_drivers_inside_one_always(self, fig2_target):
        # several branch assignments to one reg in one block: one driver
        text = top_with(
            "  reg r;\n"
            "  always @(posedge clk or negedge rst_n) begin\n"
            "    if (!rst_n) r <= 1'b0;\n"
            "    else if (a) r <= 1'b1;\n"
            "    else r <= a;\n"
            "  end\n"
            "  wire z = r;"
        )
        findings = self._lint_text(fig2_target, text)
        assert "RTL001" not in rules_of(findings)


# ----------------------------------------------------------------------
# The fault-class cross-check (pinned coverage map)
# ----------------------------------------------------------------------
class TestFaultCoverage:
    def test_every_injector_kind_is_covered(self):
        assert injector_fault_kinds() == covered_fault_kinds()

    def test_pinned_kind_rule_map(self):
        pinned = {f.kind: f.rule_id for f in STRUCTURAL_FAULTS}
        assert pinned == {
            "stuck-completion": "FSM002",
            "delayed-completion": "SCH006",
            "dropped-pulse": "LIVE002",
            "spurious-pulse": "LIVE004",
            "state-flip": "FSM001",
            "intermittent-slow": "SCH004",
        }

    def test_selftest_detects_every_fault(self, fig2_target):
        outcomes = run_selftest(fig2_target)
        assert {o.kind for o in outcomes} == covered_fault_kinds()
        for outcome in outcomes:
            assert outcome.detected, (
                f"structural fault {outcome.kind!r} escaped rule "
                f"{outcome.rule_id}:\n{outcome.report.render()}"
            )

    def test_selftest_rejects_dirty_target(self, fig2_target):
        # stuck-completion yields FSM002, an error-severity finding
        fault = next(
            f for f in STRUCTURAL_FAULTS if f.kind == "stuck-completion"
        )
        with pytest.raises(VerificationError, match="not clean"):
            run_selftest(fault.mutate(fig2_target))


# ----------------------------------------------------------------------
# Whole-design smoke
# ----------------------------------------------------------------------
class TestWholeDesign:
    def test_fig2_report_error_free(self, fig2_target):
        report = lint_target(fig2_target)
        assert report.design == "fig2"
        assert not report.has_errors

    def test_report_is_deterministic(self, fig2_target):
        dfg = paper_fig2_dfg()
        from repro.api import synthesize

        from_scratch = LintTarget.from_result(
            synthesize(dfg, "mul:2T,add:1"), name="fig2"
        )
        assert (
            lint_target(fig2_target).to_json()
            == lint_target(from_scratch).to_json()
        )
