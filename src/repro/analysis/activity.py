"""Switching-activity analysis (a dynamic-energy proxy).

Telescopic units come out of the low-power literature (Benini, Macii,
Poncino), so a controller comparison should say something about dynamic
energy, not only latency.  This module counts control-signal *toggles*
(0→1 and 1→0 transitions cycle over cycle) from a recorded simulation
trace — the standard first-order proxy for dynamic switching energy —
split by signal family (operand fetches, register enables, completion
wires), plus the register-write count on the datapath side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..fsm.signals import is_op_completion

if TYPE_CHECKING:  # avoid the sim <-> fsm import cycle
    from ..sim.simulator import SimulationResult


@dataclass(frozen=True)
class ActivityReport:
    """Toggle counts of one simulation run, by signal family."""

    scheme: str
    cycles: int
    fetch_toggles: int
    enable_toggles: int
    completion_toggles: int
    register_writes: int

    @property
    def total_toggles(self) -> int:
        return (
            self.fetch_toggles
            + self.enable_toggles
            + self.completion_toggles
        )

    def render(self) -> str:
        return (
            f"{self.scheme}: {self.total_toggles} control toggles over "
            f"{self.cycles} cycles (OF {self.fetch_toggles}, "
            f"RE {self.enable_toggles}, CC {self.completion_toggles}); "
            f"{self.register_writes} register writes"
        )


def activity_report(
    sim: "SimulationResult", scheme: str = "DIST"
) -> ActivityReport:
    """Count signal toggles from a recorded trace.

    A signal toggles when its value differs between consecutive cycles
    (and once at the start when it rises out of reset).
    """
    if sim.trace is None:
        raise SimulationError(
            "activity analysis needs a trace; simulate with "
            "record_trace=True"
        )
    previous: frozenset[str] = frozenset()
    fetch = enable = completion = writes = 0
    for record in sim.trace.records:
        current = record.outputs
        for signal in current.symmetric_difference(previous):
            if signal.startswith("OF_"):
                fetch += 1
            elif signal.startswith("RE_"):
                enable += 1
            elif is_op_completion(signal):
                completion += 1
        writes += sum(1 for s in current if s.startswith("RE_"))
        previous = current
    return ActivityReport(
        scheme=scheme,
        cycles=len(sim.trace.records),
        fetch_toggles=fetch,
        enable_toggles=enable,
        completion_toggles=completion,
        register_writes=writes,
    )
