"""TAUBM schedule derivation (paper §2.2).

Turns a classical time-step schedule into a *TAUBM DFG* (paper Fig. 2(b)):
every time step ``T_i`` that contains operations bound to telescopic units
is split into ``T_i`` and a conditional extension ``T_i'``.  TAU operations
span both (they finish in ``T_i`` for fast operands, in ``T_i'``
otherwise); nothing else is scheduled into the extension — the paper's gray
boxes.
"""

from __future__ import annotations

from ..core.ops import ResourceClass
from ..resources.allocation import ResourceAllocation
from .schedule import TaubmSchedule, TaubmStep, TimeStepSchedule


def telescopic_classes(
    allocation: ResourceAllocation,
) -> frozenset[ResourceClass]:
    """Resource classes served by telescopic units in an allocation."""
    return frozenset(
        u.resource_class for u in allocation.telescopic_units()
    )


def derive_taubm_schedule(
    schedule: TimeStepSchedule,
    allocation: ResourceAllocation,
) -> TaubmSchedule:
    """Annotate a time-step schedule with TAU extensions (Fig. 2(b)).

    The derivation is the paper's two trivial steps: split every step with
    TAU-bound operations, schedule those operations across the pair, and
    keep all fixed-delay operations in the first half.
    """
    tau_classes = telescopic_classes(allocation)
    steps = []
    for index, ops in enumerate(schedule.steps()):
        tau_ops = tuple(
            name
            for name in ops
            if schedule.dfg.op(name).resource_class in tau_classes
        )
        steps.append(TaubmStep(index=index, ops=tuple(ops), tau_ops=tau_ops))
    return TaubmSchedule(base=schedule, steps=tuple(steps))
