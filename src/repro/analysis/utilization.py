"""Unit-utilization analysis of simulation runs.

The paper's stated goal for the distributed structure is "to minimize
idle time of component arithmetic units"; this module measures exactly
that from a simulation: per-unit busy cycles, idle cycles and utilization
over the executed window, for any controller scheme — making the
idle-time claim a measurable quantity instead of prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..binding.binder import BoundDataflowGraph

if TYPE_CHECKING:  # avoid an import cycle: sim imports fsm imports sim
    from ..sim.simulator import SimulationResult


@dataclass(frozen=True)
class UnitUtilization:
    """Busy/idle accounting for one arithmetic unit."""

    unit: str
    busy_cycles: int
    window_cycles: int
    operations_executed: int

    @property
    def utilization(self) -> float:
        if self.window_cycles == 0:
            return 0.0
        return self.busy_cycles / self.window_cycles

    @property
    def idle_cycles(self) -> int:
        return self.window_cycles - self.busy_cycles


@dataclass(frozen=True)
class UtilizationReport:
    """Per-unit utilization for one simulation run."""

    scheme: str
    window_cycles: int
    units: tuple[UnitUtilization, ...]

    def mean_utilization(self) -> float:
        if not self.units:
            return 0.0
        return sum(u.utilization for u in self.units) / len(self.units)

    def unit(self, name: str) -> UnitUtilization:
        for u in self.units:
            if u.unit == name:
                return u
        raise KeyError(name)

    def render(self) -> str:
        lines = [
            f"{self.scheme}: unit utilization over {self.window_cycles} "
            f"cycles (mean {100 * self.mean_utilization():.1f}%)"
        ]
        for u in self.units:
            bar = "#" * round(20 * u.utilization)
            lines.append(
                f"  {u.unit:6s} {100 * u.utilization:5.1f}% "
                f"({u.busy_cycles}/{u.window_cycles} cycles, "
                f"{u.operations_executed} ops) {bar}"
            )
        return "\n".join(lines)


def utilization_report(
    bound: BoundDataflowGraph,
    sim: "SimulationResult",
    scheme: str = "DIST",
) -> UtilizationReport:
    """Busy-cycle accounting from a simulation's start/finish records.

    The window is the first-iteration latency; an operation's busy
    cycles are the duration of its sampled telescope level — actual
    compute time, so a synchronized stall (operands held while a sibling
    unit extends) counts as *idle*, which is precisely the time the
    distributed structure reclaims.
    """
    window = sim.cycles
    per_unit: dict[str, tuple[int, int]] = {}
    for op in bound.dfg.op_names():
        unit = bound.binding[op]
        level = sim.level_outcomes[op][0]
        busy = min(bound.duration_for_level(op, level), window)
        prev_busy, prev_count = per_unit.get(unit, (0, 0))
        per_unit[unit] = (prev_busy + busy, prev_count + 1)
    units = tuple(
        UnitUtilization(
            unit=unit,
            busy_cycles=busy,
            window_cycles=window,
            operations_executed=count,
        )
        for unit, (busy, count) in sorted(per_unit.items())
    )
    return UtilizationReport(
        scheme=scheme, window_cycles=window, units=units
    )
