"""Seeded fault campaigns: measure that every safety net actually fires.

A campaign sweeps ``trials`` deterministically generated faults over one
synthesized design and classifies every faulty run:

* ``detected`` — a runtime invariant monitor fired (deadlock watchdog,
  occupancy / timing / handshake protocol checker, premature-start check),
* ``tolerated`` — the run completed and the end-to-end datapath oracle
  confirmed bit-correct results (the fault cost at most latency),
* ``silent`` — the run completed, no monitor fired, but
  :meth:`~repro.sim.datapath.Datapath.verify_iteration` found wrong
  values: silent corruption, the outcome a robust control scheme must
  never allow.

The same campaign runs against the distributed controllers (``dist``) and
the synchronized centralized baseline (``cent-sync``), so the report
quantifies their relative vulnerability instead of assuming it.  Every
fault, seed and input is derived from the campaign seed alone — two runs
with the same arguments produce byte-identical JSON.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from collections.abc import Callable, Mapping, Sequence

from ..binding.binder import BoundDataflowGraph
from ..errors import (
    DeadlockError,
    InjectedFaultEscape,
    ProtocolError,
    SimulationError,
    VerificationError,
)
from ..fsm.signals import unit_of_completion
from ..resources.completion import BernoulliCompletion, CompletionModel
from ..resources.spec import BernoulliSpec, CompletionSpec, as_completion_spec
from ..sim.controllers import ControllerSystem
from ..sim.simulator import simulate
from .models import (
    DelayedCompletionFault,
    DroppedPulseFault,
    FaultInjector,
    FaultyControllerSystem,
    IntermittentCompletion,
    SpuriousPulseFault,
    StateFlipFault,
    StuckCompletionFault,
    inject,
)

#: controller styles a campaign can target
STYLES = ("dist", "cent-sync")


@dataclass(frozen=True)
class TrialFault:
    """One generated fault: either a system injector or a model wrapper."""

    kind: str
    description: str
    target: Mapping[str, object]
    injector: "FaultInjector | None" = None
    wrap_completion: (
        "Callable[[CompletionModel], CompletionModel] | None"
    ) = None


@dataclass(frozen=True)
class FaultTrialRecord:
    """Outcome of one faulty run."""

    trial: int
    style: str
    fault_kind: str
    fault: str
    target: Mapping[str, object]
    outcome: str  # "detected" | "tolerated" | "silent"
    detector: "str | None"
    diagnostic: str
    cycles: "int | None"
    latency_delta: "int | None"

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "style": self.style,
            "fault_kind": self.fault_kind,
            "fault": self.fault,
            "target": dict(self.target),
            "outcome": self.outcome,
            "detector": self.detector,
            "diagnostic": self.diagnostic,
            "cycles": self.cycles,
            "latency_delta": self.latency_delta,
        }


@dataclass(frozen=True)
class FaultCampaignReport:
    """Classified results of one campaign over one or more styles."""

    benchmark: str
    trials: int
    seed: int
    #: the fast probability for plain Bernoulli campaigns (the legacy
    #: JSON shape), or the encoded completion spec for richer models
    p: "float | str"
    records: tuple[FaultTrialRecord, ...]

    # -- queries ---------------------------------------------------------
    def styles(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.style, None)
        return tuple(seen)

    def for_style(self, style: str) -> tuple[FaultTrialRecord, ...]:
        return tuple(r for r in self.records if r.style == style)

    def escapes(self, style: "str | None" = None) -> tuple[
        FaultTrialRecord, ...
    ]:
        """Silent-corruption records (optionally for one style)."""
        return tuple(
            r
            for r in self.records
            if r.outcome == "silent"
            and (style is None or r.style == style)
        )

    def summary(self, style: str) -> dict:
        """Outcome counts, per fault kind and total, for one style."""
        records = self.for_style(style)
        outcomes = ("detected", "tolerated", "silent")
        by_kind: dict[str, dict[str, int]] = {}
        for record in records:
            row = by_kind.setdefault(
                record.fault_kind, {o: 0 for o in outcomes}
            )
            row[record.outcome] += 1
        totals = {
            o: sum(1 for r in records if r.outcome == o) for o in outcomes
        }
        detectors: dict[str, int] = {}
        for record in records:
            if record.detector is not None:
                detectors[record.detector] = (
                    detectors.get(record.detector, 0) + 1
                )
        return {
            "trials": len(records),
            "totals": totals,
            "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
            "detectors": {k: detectors[k] for k in sorted(detectors)},
        }

    def check_no_escapes(self) -> None:
        """Raise :class:`InjectedFaultEscape` on any silent corruption."""
        escapes = self.escapes()
        if escapes:
            first = escapes[0]
            raise InjectedFaultEscape(
                f"fault campaign on {self.benchmark!r}: "
                f"{len(escapes)} silent corruption(s); first escape is "
                f"trial {first.trial} ({first.style}): {first.fault} — "
                f"{first.diagnostic}",
                fault=first.fault,
                benchmark=self.benchmark,
                trial=first.trial,
            )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "trials": self.trials,
            "seed": self.seed,
            "p": self.p,
            "styles": {
                style: {
                    "summary": self.summary(style),
                    "records": [
                        r.to_dict() for r in self.for_style(style)
                    ],
                }
                for style in self.styles()
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- reporting -------------------------------------------------------
    def render(self) -> str:
        from ..analysis.tables import render_table

        lines = [
            f"fault campaign: {self.benchmark}, {self.trials} trials/"
            f"style, seed {self.seed}, P={self.p}"
        ]
        for style in self.styles():
            summary = self.summary(style)
            lines.append("")
            lines.append(
                f"[{style}] detected {summary['totals']['detected']}, "
                f"tolerated {summary['totals']['tolerated']}, "
                f"silent {summary['totals']['silent']}"
            )
            rows = [
                [
                    kind,
                    str(row["detected"]),
                    str(row["tolerated"]),
                    str(row["silent"]),
                ]
                for kind, row in summary["by_kind"].items()
            ]
            lines.append(
                render_table(
                    ["fault kind", "detected", "tolerated", "silent"], rows
                )
            )
            if summary["detectors"]:
                fired = ", ".join(
                    f"{name}×{count}"
                    for name, count in summary["detectors"].items()
                )
                lines.append(f"monitors fired: {fired}")
        styles = self.styles()
        if len(styles) >= 2:
            lines.append("")
            lines.append("vulnerability comparison (silent corruptions):")
            for style in styles:
                count = len(self.escapes(style))
                lines.append(f"  {style:10s} {count}")
        for record in self.escapes():
            lines.append("")
            lines.append(
                f"ESCAPE trial {record.trial} [{record.style}] "
                f"{record.fault}: {record.diagnostic}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fault generation
# ---------------------------------------------------------------------------
def _trial_fault(injector) -> TrialFault:
    """The trial fault that applies one network-level injector."""
    return TrialFault(
        kind=injector.kind,
        description=injector.describe(),
        target=injector.target(),
        injector=injector,
    )


def _fault_menu(system, bound, span: int) -> tuple[
    "Callable[[random.Random], TrialFault]", ...
]:
    """Deterministic per-style catalog of fault generators.

    ``span`` is the fault-free run length: fault cycles and windows are
    drawn inside it so injected faults actually land on live activity.
    """
    units = sorted(
        {unit_of_completion(s) for s in system.unit_completion_inputs()}
    )
    edges = system.dependence_edges()
    producers = sorted({producer for (_, _, producer) in edges})
    keys = system.keys
    telescopic_ops = sorted(
        op for op in system.all_ops() if bound.unit_of(op).is_telescopic
    )
    menu: list[Callable[[random.Random], TrialFault]] = []

    def _window(rng: random.Random) -> tuple[int, "int | None"]:
        first = rng.randrange(span)
        if rng.random() < 0.5:
            return first, None  # permanent fault
        return first, first + rng.randrange(1, span + 1)

    if units:

        def stuck(rng: random.Random) -> TrialFault:
            first, last = _window(rng)
            injector = StuckCompletionFault(
                unit=rng.choice(units),
                value=bool(rng.randrange(2)),
                first_cycle=first,
                last_cycle=last,
            )
            return _trial_fault(injector)

        def delayed(rng: random.Random) -> TrialFault:
            first = rng.randrange(span)
            injector = DelayedCompletionFault(
                unit=rng.choice(units),
                delay=1 + rng.randrange(3),
                first_cycle=first,
                last_cycle=first + span,
            )
            return _trial_fault(injector)

        menu += [stuck, delayed]

    if producers:

        def dropped(rng: random.Random) -> TrialFault:
            injector = DroppedPulseFault(
                producer_op=rng.choice(producers)
            )
            return _trial_fault(injector)

        def spurious(rng: random.Random) -> TrialFault:
            injector = SpuriousPulseFault(
                producer_op=rng.choice(producers),
                cycle=rng.randrange(span),
            )
            return _trial_fault(injector)

        menu += [dropped, spurious]

    def flip(rng: random.Random) -> TrialFault:
        injector = StateFlipFault(
            controller=rng.choice(keys),
            cycle=rng.randrange(span),
            pick=rng.randrange(16),
        )
        return _trial_fault(injector)

    menu.append(flip)

    if telescopic_ops:

        def intermittent(rng: random.Random) -> TrialFault:
            op = rng.choice(telescopic_ops)
            fault = IntermittentCompletion(
                inner=BernoulliCompletion(1.0), op=op, executions=(0,)
            )
            description = fault.describe()
            return TrialFault(
                kind=IntermittentCompletion.kind,
                description=description,
                target={
                    "kind": IntermittentCompletion.kind,
                    "op": op,
                    "executions": [0],
                },
                wrap_completion=lambda inner: IntermittentCompletion(
                    inner=inner, op=op, executions=(0,)
                ),
            )

        menu.append(intermittent)

    return tuple(menu)


def _deterministic_inputs(bound) -> dict[str, int]:
    """Fixed, distinct, nonzero input values (reproducible oracle data)."""
    return {
        name: 3 + 7 * index
        for index, name in enumerate(bound.dfg.inputs)
    }


def _system_for(result, style: str):
    if style == "dist":
        return result.distributed_system()
    if style == "cent-sync":
        return result.cent_sync_system()
    raise SimulationError(
        f"unknown controller style {style!r}; choose from {STYLES}"
    )


def _classify(exc: SimulationError) -> "tuple[str, str | None]":
    """Map a raised monitor exception to (outcome, detector)."""
    if isinstance(exc, DeadlockError):
        return "detected", "deadlock"
    if isinstance(exc, ProtocolError):
        return "detected", f"protocol:{exc.kind}"
    if isinstance(exc, VerificationError):
        return "silent", None
    return "detected", "simulator"


def _run_trial(
    systems: Mapping[str, ControllerSystem],
    bound: BoundDataflowGraph,
    seed: int,
    spec: CompletionSpec,
    inputs: Mapping[str, int],
    task: tuple[str, int, int],
) -> FaultTrialRecord:
    """Execute one fully seeded faulty trial (process-pool safe).

    ``task`` is ``(style, span, trial)``.  Everything the trial touches —
    fault choice, simulation seed, input values — derives from those plus
    the campaign arguments, so the same task produces the same record in
    any process.  ``systems`` holds one controller system per style,
    shared by every trial of the campaign so their transition tables stay
    warm; injectors wrap it without changing it.  The fault menu is
    rebuilt per trial because its entries are closures (unpicklable);
    menu construction is cheap next to the two simulations a trial runs.
    """
    style, span, trial = task
    shared = systems[style]
    menu = _fault_menu(shared, bound, span)
    rng = random.Random(f"{seed}:{style}:{trial}")
    fault = menu[rng.randrange(len(menu))](rng)
    sim_seed = rng.randrange(2**32)
    clean = simulate(
        shared,
        bound,
        spec.model(),
        seed=sim_seed,
        inputs=inputs,
    )
    system: "ControllerSystem | FaultyControllerSystem" = shared
    if fault.injector is not None:
        system = inject(shared, fault.injector)
    completion: CompletionModel = spec.model()
    if fault.wrap_completion is not None:
        completion = fault.wrap_completion(completion)
    outcome: str
    detector: "str | None"
    diagnostic = ""
    cycles: "int | None" = None
    delta: "int | None" = None
    try:
        faulty = simulate(
            system,
            bound,
            completion,
            seed=sim_seed,
            inputs=inputs,
            handshake=True,
        )
    except SimulationError as exc:
        outcome, detector = _classify(exc)
        diagnostic = str(exc)
    else:
        outcome, detector = "tolerated", None
        cycles = faulty.cycles
        delta = faulty.cycles - clean.cycles
        diagnostic = (
            f"completed in {faulty.cycles} cycles "
            f"({delta:+d} vs clean), results bit-correct"
        )
    return FaultTrialRecord(
        trial=trial,
        style=style,
        fault_kind=fault.kind,
        fault=fault.description,
        target=fault.target,
        outcome=outcome,
        detector=detector,
        diagnostic=diagnostic,
        cycles=cycles,
        latency_delta=delta,
    )


def run_campaign(
    result,
    *,
    trials: int = 100,
    seed: int = 0,
    p: "float | str | CompletionSpec" = 0.7,
    styles: Sequence[str] = STYLES,
    benchmark: "str | None" = None,
    workers: "int | None" = 1,
    policy=None,
    report=None,
    checkpoint=None,
) -> FaultCampaignReport:
    """Sweep ``trials`` seeded faults per style over one synthesis result.

    ``result`` is a :class:`~repro.api.SynthesisResult`.  Every faulty run
    executes with the value-computing datapath and all runtime monitors
    (strict handshake included); a clean twin of each trial provides the
    latency baseline for tolerated faults.  One controller system per
    style serves every trial, so its transition table stays warm from
    trial to trial (pool workers each unpickle their own cold copy).

    ``workers > 1`` fans the trials out over a process pool via
    :func:`~repro.perf.engine.parallel_map`; every trial is a pure
    function of ``(seed, style, trial)``, so the report — including its
    JSON rendering — is byte-identical to the serial run.

    ``policy`` (a :class:`~repro.runtime.policy.RunPolicy`) supervises
    the pool — worker crashes, hung trials and transient failures are
    recovered instead of aborting the campaign, with every recovery
    recorded in ``report``.  ``checkpoint`` (a directory or
    :class:`~repro.runtime.journal.CheckpointJournal`) persists each
    completed trial; an interrupted campaign resumed over the same
    journal replays the finished trials and produces JSON
    byte-identical to an uninterrupted run.
    """
    from ..perf.cache import design_fingerprint
    from ..perf.engine import parallel_map

    if trials < 1:
        raise SimulationError("a fault campaign needs >= 1 trial")
    spec = as_completion_spec(p)
    bound = result.bound
    name = benchmark if benchmark is not None else bound.dfg.name
    inputs = _deterministic_inputs(bound)
    systems = {style: _system_for(result, style) for style in styles}
    tasks: list[tuple[str, int, int]] = []
    for style in styles:
        calibration = simulate(
            systems[style],
            bound,
            spec.model(),
            seed=seed,
            inputs=inputs,
        )
        span = max(calibration.cycles, 4)
        tasks.extend((style, span, trial) for trial in range(trials))
    # the run key names everything the records depend on (and not the
    # worker count: serial and parallel runs share a journal); plain
    # Bernoulli keeps the legacy p={p!r} fragment so old journals resume
    run_key = (
        f"fault-campaign|{design_fingerprint(bound)}|{name}"
        f"|trials={trials}|seed={seed}|{spec.key_fragment()}"
        f"|styles={','.join(styles)}"
        if checkpoint is not None
        else ""
    )
    records = parallel_map(
        partial(_run_trial, systems, bound, seed, spec, inputs),
        tasks,
        workers=workers,
        policy=policy,
        report=report,
        checkpoint=checkpoint,
        run_key=run_key,
    )
    return FaultCampaignReport(
        benchmark=name,
        trials=trials,
        seed=seed,
        p=spec.p if isinstance(spec, BernoulliSpec) else spec.encode(),
        records=tuple(records),
    )
