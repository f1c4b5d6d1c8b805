"""Tests for the explicit-state model checker (repro.verify.modelcheck).

Covers the three rule families end to end: clean proofs on the shipped
benchmarks (with pinned state counts — the exploration itself is
deterministic), budget enforcement, and the soundness contract that
every counterexample replays in the cycle-accurate simulator as the
matching runtime error.
"""

import json
from dataclasses import replace

import pytest

from repro.api import synthesize
from repro.benchmarks.registry import benchmark
from repro.cli import main
from repro.errors import (
    DeadlockError,
    ModelCheckBudgetExceeded,
    ProtocolError,
    VerificationError,
)
from repro.fsm.signals import is_unit_completion
from repro.pipeline.manager import run_synthesis_pipeline
from repro.sim.stimulus import CounterexampleStimulus
from repro.verify import LintTarget
from repro.verify.modelcheck import (
    check_benchmark,
    check_result,
    check_target,
)

from structural_faults import STRUCTURAL_FAULTS, run_selftest

#: the committed generated-family designs (full canonical names).
GEN_DESIGNS = (
    "gen:ops=20,depth=5,fanout=2,mix=2-2-1,pressure=3,seed=2",
    "gen:ops=14,depth=4,fanout=3,mix=2-2-1,pressure=3,seed=5",
)


@pytest.fixture(scope="module")
def fir5_result():
    entry = benchmark("fir5")
    return synthesize(entry.factory(), entry.allocation())


@pytest.fixture(scope="module")
def fir5_target(fir5_result) -> LintTarget:
    return LintTarget.from_result(fir5_result, name="fir5")


# ----------------------------------------------------------------------
# Clean designs
# ----------------------------------------------------------------------
class TestCleanDesigns:
    @pytest.mark.parametrize(
        ("name", "states"),
        [("fig2", 19), ("fir3", 19), ("fir5", 59), ("diffeq", 62)],
    )
    def test_core_benchmark_clean(self, name, states):
        result = check_benchmark(name)
        assert result.clean
        assert result.states == states
        assert result.accepting > 0
        assert result.transitions >= result.states - result.accepting
        assert result.counterexamples == ()

    @pytest.mark.parametrize("name", GEN_DESIGNS)
    def test_generated_design_clean(self, name):
        result = check_benchmark(name)
        assert result.clean
        assert result.accepting > 0

    def test_check_result_matches_check_benchmark(self, fir5_result):
        via_result = check_result(fir5_result, name="fir5")
        via_name = check_benchmark("fir5")
        assert via_result.report.to_json() == via_name.report.to_json()
        assert via_result.states == via_name.states

    def test_render_summarizes_exploration(self, fir5_target):
        text = check_target(fir5_target).render()
        assert "check fir5:" in text
        assert "states" in text and "accepting" in text

    def test_exploration_deterministic(self, fir5_target):
        first = check_target(fir5_target)
        second = check_target(fir5_target)
        assert first.report.to_json() == second.report.to_json()
        assert (first.states, first.transitions, first.max_depth) == (
            second.states,
            second.transitions,
            second.max_depth,
        )


# ----------------------------------------------------------------------
# Exploration budgets
# ----------------------------------------------------------------------
class TestBudgets:
    def test_state_budget_exceeded(self):
        with pytest.raises(ModelCheckBudgetExceeded) as excinfo:
            check_benchmark("fir5", max_states=10)
        assert excinfo.value.reason == "states"
        assert excinfo.value.limit == 10
        assert excinfo.value.states == 10

    def test_frontier_budget_exceeded(self):
        with pytest.raises(ModelCheckBudgetExceeded) as excinfo:
            check_benchmark("fir5", max_frontier=3)
        assert excinfo.value.reason == "frontier"
        assert excinfo.value.limit == 3
        assert excinfo.value.frontier is not None

    def test_budget_error_context(self):
        with pytest.raises(ModelCheckBudgetExceeded) as excinfo:
            check_benchmark("fir5", max_states=10)
        context = excinfo.value.context()
        assert context["reason"] == "states"
        assert context["limit"] == 10

    def test_generous_budget_unaffected(self, fir5_target):
        result = check_target(
            fir5_target, max_states=1000, max_frontier=1000
        )
        assert result.clean


# ----------------------------------------------------------------------
# Seeded mutations: each rule family fires with a replayable witness
# ----------------------------------------------------------------------
def _noisy_impostor(target: LintTarget) -> LintTarget:
    """A second controller pulses a live CC net on *every* transition."""
    for net in target.distributed.live_nets():
        for unit, fsm in target.controllers.items():
            if unit == net.producer_unit or net.signal in fsm.outputs:
                continue
            mutated = replace(
                fsm,
                outputs=(*fsm.outputs, net.signal),
                transitions=tuple(
                    replace(
                        tr, outputs=frozenset(tr.outputs | {net.signal})
                    )
                    for tr in fsm.transitions
                ),
            )
            controllers = dict(target.controllers)
            controllers[unit] = mutated
            return target.with_controllers(controllers)
    raise AssertionError("design unsuitable: needs two controllers")


def _complete_early(target: LintTarget) -> LintTarget:
    """A telescopic controller completes without waiting for its CSG."""
    for unit, fsm in target.controllers.items():
        if not target.bound.allocation.unit(unit).is_telescopic:
            continue
        for tr in fsm.transitions:
            if tr.completes and any(
                is_unit_completion(name) and required
                for name, required in tr.guard
            ):
                keep = [
                    other
                    for other in fsm.transitions
                    if other.source != tr.source
                ]
                unconditional = tuple(
                    (name, required)
                    for name, required in tr.guard
                    if not is_unit_completion(name)
                )
                keep.append(replace(tr, guard=unconditional))
                controllers = dict(target.controllers)
                controllers[unit] = replace(
                    fsm, transitions=tuple(keep)
                )
                return target.with_controllers(controllers)
    raise AssertionError("design unsuitable: no telescopic completer")


def _double_start(target: LintTarget) -> LintTarget:
    """A controller starts a second op of its unit with the first.

    Both starts find the unit idle; the model checker reports the later
    one as a double booking (MC-REF) and drops it, where the simulator
    raises an occupancy error.
    """
    for unit, fsm in target.controllers.items():
        ops = target.bound.ops_on_unit(unit)
        for index, tr in enumerate(fsm.transitions):
            extra = [op for op in ops if tr.starts and op not in tr.starts]
            if extra:
                transitions = list(fsm.transitions)
                transitions[index] = replace(
                    tr, starts=tr.starts | {extra[-1]}
                )
                controllers = dict(target.controllers)
                controllers[unit] = replace(
                    fsm, transitions=tuple(transitions)
                )
                return target.with_controllers(controllers)
    raise AssertionError("design unsuitable: no unit with two ops")


def _start_early(target: LintTarget) -> LintTarget:
    """A controller also starts an op with predecessors at cycle 0."""
    dependent = {v for _, v in target.bound.execution_edges()}
    for unit, fsm in target.controllers.items():
        for op in target.bound.ops_on_unit(unit):
            if op in dependent and op not in fsm.initial_starts:
                controllers = dict(target.controllers)
                controllers[unit] = replace(
                    fsm, initial_starts=fsm.initial_starts | {op}
                )
                return target.with_controllers(controllers)
    raise AssertionError("design unsuitable: no op with a predecessor")


class TestMutationWitnesses:
    def test_dropped_pulse_deadlocks(self, fir5_target):
        fault = next(
            f for f in STRUCTURAL_FAULTS if f.kind == "dropped-pulse"
        )
        bad = fault.mutate(fir5_target)
        result = check_target(bad)
        assert "MC-DEAD" in result.report.rules_fired()
        cex = result.counterexample_for("MC-DEAD")
        assert cex is not None
        assert cex.expects == "deadlock"
        error = cex.replay(bad.distributed.system(), bad.bound)
        assert isinstance(error, DeadlockError)

    def test_spurious_pulses_race(self, fir5_target):
        bad = _noisy_impostor(fir5_target)
        result = check_target(bad)
        assert "MC-RACE" in result.report.rules_fired()
        cex = result.counterexample_for("MC-RACE")
        assert cex is not None
        assert cex.expects == "protocol"
        error = cex.replay(bad.distributed.system(), bad.bound)
        assert isinstance(error, ProtocolError)

    def test_early_completion_breaks_refinement(self, fir5_target):
        bad = _complete_early(fir5_target)
        result = check_target(bad)
        assert "MC-REF" in result.report.rules_fired()
        cex = result.counterexample_for("MC-REF")
        assert cex is not None
        assert cex.expects == "protocol"
        # the violation only exists on a slow-level trajectory
        assert any(level > 0 for _, level in cex.levels)
        error = cex.replay(bad.distributed.system(), bad.bound)
        assert isinstance(error, ProtocolError)

    def test_same_cycle_double_start_is_double_booking(self):
        """Two starts on one idle unit in one cycle: MC-REF names the
        unit, and the replay trips the simulator's occupancy monitor."""
        entry = benchmark("fir3")
        result = synthesize(entry.factory(), entry.allocation())
        bad = _double_start(LintTarget.from_result(result, name="fir3"))
        (cex,) = [
            cex
            for cex in check_target(bad).counterexamples
            if "starts in the same cycle" in cex.description
        ]
        assert cex.rule_id == "MC-REF"
        assert "unit TM1 double-booked" in cex.description
        error = cex.replay(bad.distributed.system(), bad.bound)
        assert isinstance(error, ProtocolError)
        assert error.kind == "occupancy"
        assert error.unit == "TM1"

    def test_counterexamples_align_with_diagnostics(self, fir5_target):
        fault = next(
            f for f in STRUCTURAL_FAULTS if f.kind == "dropped-pulse"
        )
        result = check_target(fault.mutate(fir5_target))
        assert len(result.counterexamples) == len(
            result.report.diagnostics
        )
        for d, cex in zip(
            result.report.diagnostics, result.counterexamples
        ):
            assert d.rule == cex.rule_id

    def test_replay_on_clean_design_refuses(self, fir5_target):
        cex = CounterexampleStimulus(
            design="fir5",
            rule_id="MC-DEAD",
            expects="deadlock",
            levels=tuple(
                (op, 0)
                for op in sorted(fir5_target.bound.telescopic_ops())
            ),
        )
        with pytest.raises(VerificationError, match="did not reproduce"):
            cex.replay(
                fir5_target.distributed.system(), fir5_target.bound
            )


# ----------------------------------------------------------------------
# Counterexample serialization
# ----------------------------------------------------------------------
class TestCounterexampleStimulus:
    def test_round_trip(self):
        cex = CounterexampleStimulus(
            design="fir5",
            rule_id="MC-RACE",
            expects="protocol",
            levels=(("m0", 1), ("m1", 0)),
            depth=4,
            description="race on CC_m0",
            handshake=True,
        )
        assert CounterexampleStimulus.from_dict(cex.to_dict()) == cex

    def test_dict_is_json_serializable(self):
        cex = CounterexampleStimulus(
            design="d",
            rule_id="MC-DEAD",
            expects="deadlock",
            levels=(("a", 0),),
        )
        payload = json.loads(json.dumps(cex.to_dict()))
        assert CounterexampleStimulus.from_dict(payload) == cex

    def test_invalid_expects_rejected(self):
        with pytest.raises(VerificationError, match="choose"):
            CounterexampleStimulus(
                design="d",
                rule_id="MC-DEAD",
                expects="explosion",
                levels=(),
            )

    def test_completion_model_carries_levels(self):
        cex = CounterexampleStimulus(
            design="d",
            rule_id="MC-REF",
            expects="protocol",
            levels=(("m0", 2),),
        )
        assert cex.completion_model().levels == {"m0": 2}


# ----------------------------------------------------------------------
# Selftest integration: behavioral fault kinds carry MC pins
# ----------------------------------------------------------------------
class TestSelftestIntegration:
    def test_mc_pins_fire(self, fir5_target):
        outcomes = run_selftest(fir5_target, model_check=True)
        by_kind = {o.kind: o for o in outcomes}
        assert by_kind["stuck-completion"].mc_detected is True
        assert by_kind["dropped-pulse"].mc_detected is True
        assert by_kind["spurious-pulse"].mc_detected is True
        # artifact-level corruptions stay the lint rules' job
        assert by_kind["delayed-completion"].mc_detected is None
        assert by_kind["state-flip"].mc_detected is None
        assert by_kind["intermittent-slow"].mc_detected is None

    def test_without_model_check_no_mc_outcomes(self, fir5_target):
        outcomes = run_selftest(fir5_target)
        assert all(o.mc_detected is None for o in outcomes)

    @pytest.mark.parametrize("name", GEN_DESIGNS)
    def test_generated_designs_selftest(self, name):
        entry = benchmark(name)
        result = synthesize(entry.factory(), entry.allocation())
        target = LintTarget.from_result(result, name=name)
        outcomes = run_selftest(target, model_check=True)
        assert all(o.detected for o in outcomes)
        assert all(
            o.mc_detected
            for o in outcomes
            if o.mc_detected is not None
        )


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
class TestPipelinePass:
    def test_full_run_includes_model_check(self):
        entry = benchmark("fir3")
        store, manifest = run_synthesis_pipeline(
            entry.factory(), entry.allocation(), upto=None
        )
        record = manifest.record_for("model-check")
        assert tuple(record.diagnostics) == ()

    def test_strict_mode_rejects_corrupt_network(self, fir5_target):
        from repro.errors import PipelineError
        from repro.pipeline.passes import MODEL_CHECK

        fault = next(
            f for f in STRUCTURAL_FAULTS if f.kind == "dropped-pulse"
        )
        bad = fault.mutate(fir5_target)

        class _Store:
            def get(self, key):
                return getattr(bad, key)

        options = MODEL_CHECK.resolve_options({"strict": True})
        with pytest.raises(PipelineError, match="model-check"):
            MODEL_CHECK.run(_Store(), options, [])

    def test_pass_is_cacheable(self):
        from repro.pipeline.passes import MODEL_CHECK

        assert MODEL_CHECK.cacheable


# ----------------------------------------------------------------------
# The repro check CLI
# ----------------------------------------------------------------------
class TestCheckCli:
    def test_single_benchmark_text(self, tmp_path, capsys):
        code = main(
            ["check", "fig2", "--baseline-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check fig2:" in out
        assert "gate fig2:" in out

    def test_json_output_file(self, tmp_path):
        out_file = tmp_path / "check.json"
        code = main(
            [
                "check",
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
        report = payload["reports"][0]
        assert report["design"] == "fig2"
        assert report["states"] == 19
        assert report["counterexamples"] == []

    def test_write_then_check_baseline(self, tmp_path):
        args = ["check", "fig2", "--baseline-dir", str(tmp_path)]
        assert main([*args, "--write-baseline"]) == 0
        assert main([*args, "--check-baseline"]) == 0
        baseline = tmp_path / "fig2.json"
        baseline.write_text(baseline.read_text() + "\n")
        assert main([*args, "--check-baseline"]) == 1

    def test_check_baseline_missing_outside_repo_root(
        self, tmp_path, monkeypatch, capsys
    ):
        # the default --baseline-dir is relative: from another cwd it
        # names no file, which is its own failure, not "drift"
        monkeypatch.chdir(tmp_path)
        out_file = tmp_path / "check.json"
        args = ["check", "fig2", "--check-baseline", "--format", "json"]
        assert main([*args, "-o", str(out_file)]) == 1
        err = capsys.readouterr().err
        looked_for = tmp_path / "baselines" / "check" / "fig2.json"
        assert f"no baseline file at {looked_for}" in err
        assert "--baseline-dir" in err
        assert "--write-baseline" not in err
        assert "not byte-identical" not in err

    def test_jobs_output_byte_identical(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = [
            "check",
            "fig2",
            "fir3",
            "--baseline-dir",
            str(tmp_path),
            "--format",
            "json",
        ]
        assert main([*base, "-o", str(serial)]) == 0
        assert main([*base, "-o", str(parallel), "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_budget_flag_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "check",
                "fir5",
                "--baseline-dir",
                str(tmp_path),
                "--max-states",
                "10",
            ]
        )
        assert code == 1
        assert "state budget" in capsys.readouterr().err

    def test_allocation_requires_single_benchmark(self, tmp_path):
        code = main(
            [
                "check",
                "fig2",
                "fig3",
                "--allocation",
                "mul:2T,add:1",
                "--baseline-dir",
                str(tmp_path),
            ]
        )
        assert code == 2


class TestLintJobs:
    def test_jobs_output_byte_identical(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = [
            "lint",
            "fig2",
            "fir3",
            "--baseline-dir",
            str(tmp_path),
            "--format",
            "json",
            "--fail-on",
            "never",
        ]
        assert main([*base, "-o", str(serial)]) == 0
        assert main([*base, "-o", str(parallel), "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
