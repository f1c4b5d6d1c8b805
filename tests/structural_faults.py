"""Detector-coverage self-test: fault classes must trip named rules.

:mod:`repro.faults` defines the runtime fault model — six injector
classes, each tagged with a ``kind``.  Every kind has a *structural*
shadow: the artifact corruption a design would carry if that fault were
baked in at synthesis time instead of injected at run time.  This
module materializes one corrupted artifact bundle per fault kind and
pins which lint rule must flag it, so the static suite's detector
coverage is tested against the same fault taxonomy the dynamic
campaigns sweep — a new injector kind without a structural shadow (or a
shadow no rule catches) fails the self-test.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from collections.abc import Callable

from repro.errors import VerificationError
from repro.fsm.model import make_transition
from repro.fsm.optimize import prune_outputs
from repro.fsm.signals import is_unit_completion
from repro.scheduling.schedule import (
    TaubmSchedule,
    TaubmStep,
    TimeStepSchedule,
)
from repro.verify.diagnostics import DiagnosticReport
from repro.verify.engine import lint_target
from repro.verify.target import LintTarget


def injector_fault_kinds() -> frozenset[str]:
    """Every ``kind`` tag declared by a concrete fault model.

    Fault models come in two flavours — :class:`FaultInjector`
    subclasses and completion-model wrappers — so this keys on the
    declared ``kind`` tag rather than a base class.
    """
    from repro.faults import models

    kinds: set[str] = set()
    for obj in vars(models).values():
        if not inspect.isclass(obj) or inspect.isabstract(obj):
            continue
        kind = vars(obj).get("kind")
        if isinstance(kind, str) and kind != "fault":
            kinds.add(kind)
    return frozenset(kinds)


@dataclass(frozen=True)
class StructuralFault:
    """One fault kind's structural shadow and the rule that catches it.

    ``mc_rule_id`` additionally pins the model-check rule the composed
    network exploration must fire on the corrupted bundle — set for the
    fault kinds whose corruption is *behavioral* (visible only in the
    product state space); artifact-level corruptions (schedule, TAUBM,
    unreachable states) stay the lint rules' job.
    """

    kind: str
    rule_id: str
    description: str
    mutate: Callable[[LintTarget], LintTarget]
    mc_rule_id: "str | None" = None


@dataclass(frozen=True)
class SelftestOutcome:
    """Result of one structural-fault injection.

    ``mc_detected`` is ``None`` when the fault has no pinned model-check
    rule or the model checker was not run.
    """

    kind: str
    rule_id: str
    detected: bool
    report: DiagnosticReport
    mc_detected: "bool | None" = None


# ---------------------------------------------------------------------
# Artifact mutators (the structural shadows)
# ---------------------------------------------------------------------
def _unsuitable(kind: str, why: str) -> VerificationError:
    return VerificationError(
        f"design unsuitable for the {kind!r} self-test: {why}"
    )


def _raw_schedule(dfg, start) -> TimeStepSchedule:
    """A schedule bypassing constructor validation.

    Models a corrupted artifact (tampered cache entry, buggy custom
    pass): exactly what the static rules exist to catch, and exactly
    what the validating constructor would refuse to build.
    """
    schedule = TimeStepSchedule.__new__(TimeStepSchedule)
    object.__setattr__(schedule, "dfg", dfg)
    object.__setattr__(schedule, "start", dict(start))
    return schedule


def _wedge_wait_state(target: LintTarget) -> LintTarget:
    """stuck-completion: delete the C-low wait path of one state.

    A CSG stuck low means the controller never leaves the execution
    state; structurally, a machine *built* without the C-low branch has
    an incomplete transition relation — FSM002.
    """
    for unit_name, fsm in target.controllers.items():
        for t in fsm.transitions:
            if any(
                is_unit_completion(name) and not required
                for name, required in t.guard
            ):
                keep = tuple(
                    other
                    for other in fsm.transitions
                    if not (
                        other.source == t.source
                        and any(
                            is_unit_completion(name) and not required
                            for name, required in other.guard
                        )
                    )
                )
                mutated = replace(fsm, transitions=keep)
                controllers = dict(target.controllers)
                controllers[unit_name] = mutated
                return target.with_controllers(controllers)
    raise _unsuitable("stuck-completion", "no C-low wait transition")


def _drop_producer_output(target: LintTarget) -> LintTarget:
    """dropped-pulse: the producer never drives a consumed CC net."""
    for net in target.distributed.live_nets():
        fsm = target.controllers.get(net.producer_unit)
        if fsm is None or net.signal not in fsm.outputs:
            continue
        keep = [s for s in fsm.outputs if s != net.signal]
        controllers = dict(target.controllers)
        controllers[net.producer_unit] = prune_outputs(fsm, keep)
        return target.with_controllers(controllers)
    raise _unsuitable("dropped-pulse", "no live completion net")


def _add_spurious_producer(target: LintTarget) -> LintTarget:
    """spurious-pulse: a second controller also drives a CC net."""
    for net in target.distributed.live_nets():
        for unit_name, fsm in target.controllers.items():
            if unit_name == net.producer_unit:
                continue
            if net.signal in fsm.outputs or not fsm.transitions:
                continue
            first = fsm.transitions[0]
            impostor = replace(
                fsm,
                outputs=(*fsm.outputs, net.signal),
                transitions=(
                    replace(
                        first,
                        outputs=frozenset(first.outputs | {net.signal}),
                    ),
                    *fsm.transitions[1:],
                ),
            )
            controllers = dict(target.controllers)
            controllers[unit_name] = impostor
            return target.with_controllers(controllers)
    raise _unsuitable("spurious-pulse", "needs two controllers")


def _add_seu_trap_state(target: LintTarget) -> LintTarget:
    """state-flip: a state only an upset can reach."""
    unit_name, fsm = next(iter(target.controllers.items()))
    trap = "SEU_TRAP"
    if trap in fsm.states:
        raise _unsuitable("state-flip", "trap state already present")
    mutated = replace(
        fsm,
        states=(*fsm.states, trap),
        transitions=(
            *fsm.transitions,
            make_transition(trap, trap),
        ),
    )
    controllers = dict(target.controllers)
    controllers[unit_name] = mutated
    return target.with_controllers(controllers)


def _strip_tau_extension(target: LintTarget) -> LintTarget:
    """delayed-completion: a telescopic op loses its extension slot.

    The TAUBM contract gives every telescopic-bound operation a
    conditional extension; without it, any completion slower than the
    base step overruns the schedule — exactly what the runtime
    delayed-completion injector provokes.
    """
    for index, step in enumerate(target.taubm.steps):
        if step.tau_ops:
            stripped = TaubmStep(
                index=step.index,
                ops=step.ops,
                tau_ops=step.tau_ops[1:],
            )
            steps = (
                *target.taubm.steps[:index],
                stripped,
                *target.taubm.steps[index + 1 :],
            )
            return replace(
                target,
                taubm=TaubmSchedule(base=target.taubm.base, steps=steps),
            )
    raise _unsuitable("delayed-completion", "no TAU-annotated step")


def _double_book_unit_slot(target: LintTarget) -> LintTarget:
    """intermittent-slow: an op overstays into its successor's slot.

    An intermittently slow unit makes consecutive chain operations
    overlap; the structural shadow schedules both in the same step —
    a same-cycle register write conflict on the unit.
    """
    for unit in target.bound.used_units():
        ops = target.bound.ops_on_unit(unit.name)
        if len(ops) >= 2:
            start = dict(target.schedule.start)
            start[ops[1]] = start[ops[0]]
            return replace(
                target,
                schedule=_raw_schedule(target.dfg, start),
            )
    raise _unsuitable("intermittent-slow", "no unit with two ops")


#: the pinned fault-kind → rule coverage map.
STRUCTURAL_FAULTS: tuple[StructuralFault, ...] = (
    StructuralFault(
        kind="stuck-completion",
        rule_id="FSM002",
        description="CSG wait path missing: incomplete guards wedge "
        "the controller",
        mutate=_wedge_wait_state,
        mc_rule_id="MC-DEAD",
    ),
    StructuralFault(
        kind="delayed-completion",
        rule_id="SCH006",
        description="telescopic op without a TAUBM extension overruns "
        "its step",
        mutate=_strip_tau_extension,
    ),
    StructuralFault(
        kind="dropped-pulse",
        rule_id="LIVE002",
        description="consumed completion net with no producer starves "
        "its consumers",
        mutate=_drop_producer_output,
        mc_rule_id="MC-DEAD",
    ),
    StructuralFault(
        kind="spurious-pulse",
        rule_id="LIVE004",
        description="completion net with two producers pulses "
        "spuriously",
        mutate=_add_spurious_producer,
        mc_rule_id="MC-RACE",
    ),
    StructuralFault(
        kind="state-flip",
        rule_id="FSM001",
        description="state reachable only through a bit upset",
        mutate=_add_seu_trap_state,
    ),
    StructuralFault(
        kind="intermittent-slow",
        rule_id="SCH004",
        description="chain neighbours double-book one unit slot",
        mutate=_double_book_unit_slot,
    ),
)


def covered_fault_kinds() -> frozenset[str]:
    """Fault kinds with a pinned structural shadow."""
    return frozenset(f.kind for f in STRUCTURAL_FAULTS)


def run_selftest(
    target: LintTarget, model_check: bool = False
) -> tuple[SelftestOutcome, ...]:
    """Inject every structural fault into the target and lint it.

    The clean target must lint without error-severity findings first;
    each corrupted bundle must then be flagged by its pinned rule.
    With ``model_check`` the faults carrying an ``mc_rule_id`` are
    additionally run through the composed-network model checker (which
    must also be clean on the uncorrupted target), and ``mc_detected``
    records whether the pinned MC rule fired.
    """
    clean = lint_target(target)
    if clean.has_errors:
        raise VerificationError(
            f"self-test target {target.name!r} is not clean:\n"
            f"{clean.render()}"
        )
    if model_check:
        from repro.verify.modelcheck import check_target

        mc_clean = check_target(target)
        if not mc_clean.clean:
            raise VerificationError(
                f"self-test target {target.name!r} fails model "
                f"checking:\n{mc_clean.report.render()}"
            )
    outcomes = []
    for fault in STRUCTURAL_FAULTS:
        corrupted = fault.mutate(target)
        report = lint_target(corrupted)
        mc_detected: "bool | None" = None
        if model_check and fault.mc_rule_id is not None:
            from repro.verify.modelcheck import check_target

            mc_report = check_target(corrupted).report
            mc_detected = fault.mc_rule_id in mc_report.rules_fired()
        outcomes.append(
            SelftestOutcome(
                kind=fault.kind,
                rule_id=fault.rule_id,
                detected=fault.rule_id in report.rules_fired(),
                report=report,
                mc_detected=mc_detected,
            )
        )
    return tuple(outcomes)
