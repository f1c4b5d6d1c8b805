"""Experiments F1–F7 — regenerate the paper's figures as data/artifacts.

The paper's figures are structural (FSMs, DFGs, wiring diagrams) rather
than measurement plots; each driver here regenerates the figure's
*content* programmatically — state/transition listings, schedule-arc sets,
state-count growth series, wiring tables — and asserts the properties the
caption claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..analysis.tables import render_series
from ..api import synthesize
from ..benchmarks.paper_examples import (
    fig4_pathological_dfg,
    paper_fig2_dfg,
    paper_fig3_dfg,
)
from ..core.dot import dfg_to_dot
from ..fsm.area import fsm_area
from ..fsm.model import FSM
from ..resources.bitlevel import ArrayMultiplier, RippleCarryAdder
from ..resources.csg import (
    measure_fast_fraction,
    small_value_distribution,
    synthesize_adder_csg,
    synthesize_multiplier_csg,
    uniform_distribution,
    verify_csg_safety,
)


# ----------------------------------------------------------------------
# F1 — the telescopic unit itself (Fig. 1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig1Result:
    """A synthesized telescopic unit: SD/LD split and achieved P."""

    unit_kind: str
    width: int
    short_delay_ns: float
    long_delay_ns: float
    pairs_verified: int
    achieved_p: dict[str, float]

    def render(self) -> str:
        lines = [
            f"Fig. 1 — telescopic {self.unit_kind} ({self.width}-bit): "
            f"SD={self.short_delay_ns:.2f}ns LD={self.long_delay_ns:.2f}ns, "
            f"CSG safety verified on {self.pairs_verified} operand pairs"
        ]
        for dist, p in self.achieved_p.items():
            lines.append(f"  P({dist}) = {p:.3f}")
        return "\n".join(lines)


def run_fig1_multiplier(
    width: int = 8, sd_fraction: float = 0.6
) -> Fig1Result:
    """Synthesize and verify a telescopic multiplier CSG."""
    mult = ArrayMultiplier(width=width)
    sd = mult.base_delay_ns + sd_fraction * (
        mult.worst_delay_ns - mult.base_delay_ns
    )
    csg = synthesize_multiplier_csg(mult, sd)
    checked = verify_csg_safety(
        csg, mult.delay_ns, csg.short_delay_ns, width
    )
    achieved = {
        "uniform": measure_fast_fraction(csg, uniform_distribution(width)),
        "small-operand": measure_fast_fraction(
            csg, small_value_distribution(width, width // 2)
        ),
    }
    return Fig1Result(
        unit_kind="multiplier",
        width=width,
        short_delay_ns=csg.short_delay_ns,
        long_delay_ns=mult.worst_delay_ns,
        pairs_verified=checked,
        achieved_p=achieved,
    )


def run_fig1_adder(width: int = 8, max_chain: int = 4) -> Fig1Result:
    """Synthesize and verify a telescopic adder CSG."""
    adder = RippleCarryAdder(width=width)
    sd = adder.base_delay_ns + 2.0 * adder.gate_delay_ns * max_chain
    csg = synthesize_adder_csg(adder, sd)
    checked = verify_csg_safety(
        csg, adder.delay_ns, csg.short_delay_ns, width
    )
    achieved = {
        "uniform": measure_fast_fraction(csg, uniform_distribution(width)),
        "small-operand": measure_fast_fraction(
            csg, small_value_distribution(width, width // 2)
        ),
    }
    return Fig1Result(
        unit_kind="adder",
        width=width,
        short_delay_ns=csg.short_delay_ns,
        long_delay_ns=adder.worst_delay_ns,
        pairs_verified=checked,
        achieved_p=achieved,
    )


# ----------------------------------------------------------------------
# F2 — original DFG -> TAUBM DFG -> TAUBM FSM (Fig. 2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig2Result:
    """The Fig. 2 derivation chain."""

    dfg_dot: str
    taubm_text: str
    fsm: FSM
    min_cycles: int
    max_cycles: int

    def render(self) -> str:
        return (
            f"Fig. 2 — TAUBM derivation\n{self.taubm_text}\n"
            f"TAUBM FSM: {self.fsm.num_states} states, latency "
            f"{self.min_cycles}..{self.max_cycles} cycles\n"
            + self.fsm.describe()
        )


def run_fig2() -> Fig2Result:
    """Regenerate the Fig. 2 chain on the paper's example DFG."""
    result = synthesize(paper_fig2_dfg(), "mul:2T,add:1")
    fsm = result.cent_sync_fsm
    return Fig2Result(
        dfg_dot=dfg_to_dot(result.dfg, start_times=result.schedule.start),
        taubm_text=result.taubm.describe(),
        fsm=fsm,
        min_cycles=result.taubm.min_cycles(),
        max_cycles=result.taubm.max_cycles(),
    )


# ----------------------------------------------------------------------
# F3 — order-based scheduling (Fig. 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Result:
    """Schedule arcs, chains and binding of the Fig. 3 example."""

    order_text: str
    binding_text: str
    num_schedule_arcs: int
    min_multipliers_needed: int
    dot: str

    def render(self) -> str:
        return (
            f"Fig. 3 — order-based scheduling "
            f"(min TAU multipliers without arcs: "
            f"{self.min_multipliers_needed}, inserted arcs: "
            f"{self.num_schedule_arcs})\n"
            f"{self.order_text}\n{self.binding_text}"
        )


def run_fig3() -> Fig3Result:
    """Regenerate the Fig. 3 scheduling example."""
    from ..core.ops import ResourceClass
    from ..scheduling.order_based import minimum_units_required

    dfg = paper_fig3_dfg()
    result = synthesize(dfg, "mul:2T,add:2")
    return Fig3Result(
        order_text=result.order.describe(),
        binding_text=result.bound.describe(),
        num_schedule_arcs=len(result.order.schedule_arcs),
        min_multipliers_needed=minimum_units_required(
            dfg, ResourceClass.MULTIPLIER
        ),
        dot=dfg_to_dot(
            dfg,
            schedule_arcs=result.order.schedule_arcs,
            binding=result.bound.binding,
        ),
    )


# ----------------------------------------------------------------------
# F4 — exponential state growth (Fig. 4)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Result:
    """CENT vs CENT-SYNC state counts as TAUs per step grow."""

    tau_counts: tuple[int, ...]
    cent_states: tuple[int, ...]
    sync_states: tuple[int, ...]
    cent_transitions: tuple[int, ...]

    def render(self) -> str:
        cent = render_series(
            "Fig. 4 — CENT-FSM states vs TAUs in one step",
            list(zip(map(float, self.tau_counts), map(float, self.cent_states))),
        )
        sync = render_series(
            "CENT-SYNC-FSM states vs TAUs in one step",
            list(zip(map(float, self.tau_counts), map(float, self.sync_states))),
        )
        return cent + "\n" + sync


def _fig4_point(n: int) -> tuple[int, int, int]:
    """(CENT states, CENT transitions, SYNC states) for ``n`` TAUs."""
    dfg = fig4_pathological_dfg(n)
    result = synthesize(dfg, f"mul:{n}T,add:1")
    cent = result.cent_fsm
    return cent.num_states, cent.num_transitions, result.cent_sync_fsm.num_states


def run_fig4(
    tau_counts: Sequence[int] = (1, 2, 3, 4),
    workers: "int | None" = 1,
    policy=None,
    checkpoint=None,
) -> Fig4Result:
    """Measure state growth on the pathological one-step DFGs.

    The product construction for the largest ``n`` dominates; ``workers``
    builds the independent points concurrently.  ``checkpoint`` journals
    each finished point for byte-identical resume; ``policy`` supervises
    the pool (see :mod:`repro.runtime`).
    """
    from ..runtime.journal import checkpointed_map

    run_key = (
        f"fig4|tau_counts={list(tau_counts)!r}"
        if checkpoint is not None
        else ""
    )
    points = checkpointed_map(
        _fig4_point,
        list(tau_counts),
        run_key=run_key,
        checkpoint=checkpoint,
        workers=workers,
        policy=policy,
    )
    return Fig4Result(
        tau_counts=tuple(tau_counts),
        cent_states=tuple(p[0] for p in points),
        sync_states=tuple(p[2] for p in points),
        cent_transitions=tuple(p[1] for p in points),
    )


# ----------------------------------------------------------------------
# F5/F6 — per-unit controller structure and the Fig. 6 FSM
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Result:
    """The Algorithm-1 FSM for TAU multiplier 1 of the Fig. 3 DFG."""

    fsm: FSM
    logical_transition_count: int
    area_text: str

    def render(self) -> str:
        return (
            f"Fig. 6 — {self.fsm.name}: {self.fsm.num_states} states, "
            f"{self.logical_transition_count} logical transitions\n"
            + self.fsm.describe()
            + "\n"
            + self.area_text
        )


def run_fig6(unit_name: "str | None" = None) -> Fig6Result:
    """Regenerate the Fig. 6 controller (first TAU multiplier)."""
    result = synthesize(paper_fig3_dfg(), "mul:2T,add:2")
    unit = unit_name or result.distributed.unit_names[0]
    fsm = result.distributed.controller(unit)
    return Fig6Result(
        fsm=fsm,
        logical_transition_count=len(fsm.logical_transitions()),
        area_text=fsm_area(fsm).describe(),
    )


# ----------------------------------------------------------------------
# F7 — the distributed control unit and its signal optimization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig7Result:
    """Wiring of the distributed unit, with pruned signals."""

    description: str
    live_wires: int
    pruned_signals: tuple[str, ...]

    def render(self) -> str:
        return f"Fig. 7 — distributed control unit\n{self.description}"


def run_fig7() -> Fig7Result:
    """Regenerate the Fig. 7 integration on the Fig. 3 DFG."""
    result = synthesize(paper_fig3_dfg(), "mul:2T,add:2")
    dcu = result.distributed
    return Fig7Result(
        description=dcu.describe(),
        live_wires=len(dcu.live_nets()),
        pruned_signals=dcu.pruned_signals,
    )
