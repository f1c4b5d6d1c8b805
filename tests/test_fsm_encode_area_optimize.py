"""Unit tests for encodings, the FSM area model and FSM optimizations."""

import pytest

from repro.errors import FSMError
from repro.fsm.area import fsm_area, fsm_logic_block, latch_area
from repro.fsm.encode import (
    binary_encoding,
    encode,
    gray_encoding,
    one_hot_encoding,
)
from repro.fsm.model import FSM, make_transition
from repro.fsm.optimize import prune_outputs, remove_unreachable_states


def toggle_fsm(extra_unreachable: bool = False) -> FSM:
    states = ["A", "B"]
    transitions = [
        make_transition("A", "B", {"go": True}, ("tick",)),
        make_transition("A", "A", {"go": False}),
        make_transition("B", "A", {}, ("tock",)),
    ]
    if extra_unreachable:
        states.append("Z")
        transitions.append(make_transition("Z", "A", {}, ("tick",)))
    return FSM(
        name="toggle",
        states=tuple(states),
        initial="A",
        inputs=("go",),
        outputs=("tick", "tock"),
        transitions=tuple(transitions),
    )


class TestEncodings:
    def test_binary_width(self, fig3_result):
        fsm = fig3_result.distributed.controller("TM1")
        enc = binary_encoding(fsm)
        assert 2 ** enc.width >= fsm.num_states
        assert len(set(enc.codes.values())) == fsm.num_states

    def test_one_hot(self):
        enc = one_hot_encoding(toggle_fsm())
        assert enc.width == 2
        assert sorted(enc.codes.values()) == [1, 2]

    def test_gray_adjacent_codes(self):
        enc = gray_encoding(toggle_fsm())
        codes = list(enc.codes.values())
        assert bin(codes[0] ^ codes[1]).count("1") == 1

    def test_unknown_style(self):
        with pytest.raises(FSMError, match="unknown encoding style"):
            encode(toggle_fsm(), "johnson")

    def test_unknown_state_code(self):
        enc = binary_encoding(toggle_fsm())
        with pytest.raises(FSMError, match="no code"):
            enc.code_of("missing")


class TestFsmArea:
    def test_report_columns(self):
        report = fsm_area(toggle_fsm())
        assert report.io_column() == "1/2"
        assert report.num_states == 2
        assert report.num_flip_flops == 1
        assert report.method == "exact"
        assert "/" in report.area_column()

    def test_exact_toggle_area(self):
        """Hand-checked: ns0 = A&go... with don't-cares the minimized
        next-state function is go&!s; outputs tick=!s&go, tock=s."""
        report = fsm_area(toggle_fsm())
        # ns0: one 2-literal term; tick: one 2-literal term; tock: 1 literal.
        assert report.combinational_area == pytest.approx(5.0)
        assert report.sequential_area == pytest.approx(11.0)

    def test_one_hot_uses_structural(self):
        report = fsm_area(toggle_fsm(), "one-hot")
        assert report.method == "structural"
        assert report.num_flip_flops == 2

    def test_structural_area_positive(self, fig3_result):
        fsm = fig3_result.distributed.controller("TM1")
        report = fsm_area(fsm, "one-hot")
        assert report.combinational_area > 0

    def test_logic_block_function_count(self):
        block = fsm_logic_block(toggle_fsm())
        # 1 next-state bit + 2 outputs.
        assert len(block.functions) == 3

    def test_latch_area(self):
        comb, seq = latch_area(3)
        assert seq == 33.0
        assert comb > 0

    def test_thirteen_bit_controller_is_exact(self, minimized):
        """ar_lattice's adder controller (13 encoded input bits) is
        minimized exactly, and every cover it needs is correct."""
        from repro.experiments.common import synthesize_benchmark
        from repro.logic.quine_mccluskey import verify_cover

        fsm = synthesize_benchmark("ar_lattice").distributed.controller("A1")
        assert encode(fsm, "binary").width + len(fsm.inputs) == 13
        assert fsm_area(fsm).method == "exact"
        assert minimized
        for function, cover in minimized:
            verify_cover(function, cover)


class TestOptimize:
    def test_unreachable_removed(self):
        fsm = toggle_fsm(extra_unreachable=True)
        pruned = remove_unreachable_states(fsm)
        assert pruned.num_states == 2
        assert "Z" not in pruned.states
        pruned.validate()

    def test_reachable_untouched(self):
        fsm = toggle_fsm()
        assert remove_unreachable_states(fsm) is fsm

    def test_prune_outputs(self):
        fsm = toggle_fsm()
        pruned = prune_outputs(fsm, ["tick"])
        assert pruned.outputs == ("tick",)
        assert all("tock" not in t.outputs for t in pruned.transitions)
        pruned.validate()

    def test_prune_keeps_metadata(self, fig3_result):
        fsm = fig3_result.distributed.controller("TM1")
        pruned = prune_outputs(fsm, [s for s in fsm.outputs][:2])
        originals = {
            (t.source, t.guard): (t.starts, t.completes)
            for t in fsm.transitions
        }
        for t in pruned.transitions:
            assert originals[(t.source, t.guard)] == (t.starts, t.completes)

    def test_prune_unknown_output_rejected(self):
        with pytest.raises(FSMError, match="undeclared"):
            prune_outputs(toggle_fsm(), ["zap"])


class TestOptimizeLintCommutation:
    """Optimize-then-lint must agree with lint-then-optimize.

    The static rules of :mod:`repro.verify` and the optimizations here
    describe the same structure: optimizing away a defect must remove
    exactly the findings the lint attributed to it, and optimizing an
    already-clean machine must not change any verdict.
    """

    def waiting_fsm(self) -> FSM:
        """Telescopic-style wait loop: self-loop until C_M1, then CC."""
        return FSM(
            name="wait",
            states=("S", "R"),
            initial="S",
            inputs=("C_M1",),
            outputs=("CC_p",),
            transitions=(
                make_transition("S", "S", {"C_M1": False}),
                make_transition("S", "R", {"C_M1": True}, ("CC_p",)),
                make_transition("R", "S", {}),
            ),
        )

    def test_self_loops_survive_optimization(self):
        fsm = self.waiting_fsm()
        optimized = remove_unreachable_states(fsm)
        assert optimized.num_states == fsm.num_states
        assert any(
            t.source == t.target for t in optimized.transitions
        )

    def test_completion_branches_survive_optimization(self):
        from repro.verify import lint_fsm

        fsm = self.waiting_fsm()
        optimized = remove_unreachable_states(fsm)
        assert "C_M1" in optimized.inputs
        assert lint_fsm(optimized, available={"C_M1"}) == []

    def test_removing_unreachable_resolves_fsm001_only(self):
        from repro.verify import lint_fsm

        fsm = toggle_fsm(extra_unreachable=True)
        before = lint_fsm(fsm)
        assert {d.rule for d in before} == {"FSM001"}
        after = lint_fsm(remove_unreachable_states(fsm))
        assert after == []

    def test_whole_design_verdicts_commute(self, fig2_result):
        from repro.verify import LintTarget, lint_target

        target = LintTarget.from_result(fig2_result, name="fig2")
        optimized = {
            unit: remove_unreachable_states(fsm)
            for unit, fsm in target.controllers.items()
        }
        before = lint_target(target)
        after = lint_target(target.with_controllers(optimized))
        assert before.to_json() == after.to_json()
