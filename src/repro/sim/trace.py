"""Cycle-by-cycle trace recording for controller simulations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CycleRecord:
    """Everything observable during one clock cycle.

    ``states`` are the controller states *during* the cycle;
    ``unit_completions`` the CSG values presented; ``outputs`` the Mealy
    outputs asserted; ``starts``/``completes`` the operations that begin in
    the next cycle / finish in this one.
    """

    cycle: int
    states: tuple[tuple[str, str], ...]
    unit_completions: tuple[tuple[str, bool], ...]
    outputs: frozenset[str]
    starts: frozenset[str]
    completes: frozenset[str]


@dataclass
class SimulationTrace:
    """An ordered list of cycle records with rendering helpers."""

    records: list[CycleRecord] = field(default_factory=list)

    def append(self, record: CycleRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def render(self, max_cycles: "int | None" = None) -> str:
        """Human-readable waveform-ish text table, one row per cycle."""
        lines = ["cycle | states | C | completes"]
        for record in self.records[:max_cycles]:
            states = " ".join(f"{k}:{s}" for k, s in record.states)
            cs = " ".join(
                f"{u}={int(v)}" for u, v in record.unit_completions
            )
            done = " ".join(sorted(record.completes)) or "-"
            lines.append(
                f"{record.cycle:5d} | {states} | {cs or '-'} | {done}"
            )
        if max_cycles is not None and len(self.records) > max_cycles:
            lines.append(f"... ({len(self.records) - max_cycles} more)")
        return "\n".join(lines)
