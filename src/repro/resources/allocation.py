"""Resource allocations: which arithmetic units a design gets.

A :class:`ResourceAllocation` is the ordered list of unit instances a
schedule/binding may use, plus the derived system clock.  The paper's
standard allocation (Table 2) is two telescopic multipliers with
SD = 15 ns / LD = 20 ns and fixed adders/subtractors with FD = 15 ns,
clocked at the short delay.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Iterator

from ..core.dfg import DataflowGraph
from ..core.ops import ResourceClass
from ..errors import AllocationError
from .units import (
    ArithmeticUnit,
    FixedDelayUnit,
    MultiLevelTelescopicUnit,
    TelescopicUnit,
)

#: Paper timing constants (Table 2 footnote).
PAPER_SHORT_DELAY_NS = 15.0
PAPER_LONG_DELAY_NS = 20.0
PAPER_FIXED_DELAY_NS = 15.0

_CLASS_PREFIX = {
    ResourceClass.MULTIPLIER: "M",
    ResourceClass.ADDER: "A",
    ResourceClass.SUBTRACTOR: "S",
    ResourceClass.ALU: "U",
}

_SPEC_TOKEN = re.compile(r"^(?P<cls>[a-z]+):(?P<count>\d+)(?P<tau>[tT]?)$")


@dataclass(frozen=True)
class ResourceAllocation:
    """An immutable set of arithmetic-unit instances.

    The derived clock period is the smallest period at which every unit
    finishes something each cycle: the maximum over telescopic short delays
    and fixed delays.  This matches the paper's ``CC_TAU`` clock (based on
    SD) since its fixed units are no slower than SD.
    """

    units: tuple[ArithmeticUnit, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise AllocationError("allocation contains no units")
        names = [u.name for u in self.units]
        if len(set(names)) != len(names):
            raise AllocationError(f"duplicate unit names in {names}")

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        spec: "dict[ResourceClass, int]",
        telescopic_classes: Iterable[ResourceClass] = (
            ResourceClass.MULTIPLIER,
        ),
        *,
        short_delay_ns: float = PAPER_SHORT_DELAY_NS,
        long_delay_ns: float = PAPER_LONG_DELAY_NS,
        fixed_delay_ns: float = PAPER_FIXED_DELAY_NS,
        level_delays_ns: "tuple[float, ...] | None" = None,
    ) -> "ResourceAllocation":
        """Build an allocation from per-class counts.

        Classes in ``telescopic_classes`` receive telescopic units named
        ``TM1, TM2, ...`` (multipliers) etc.; other classes receive fixed
        units named ``A1, S1, ...``.  ``level_delays_ns`` (three or more
        ascending delays) switches the telescopic classes to multi-level
        VCAUs instead of two-level TAUs.
        """
        telescopic = set(telescopic_classes)
        units: list[ArithmeticUnit] = []
        for rc, count in spec.items():
            if count < 1:
                raise AllocationError(
                    f"allocation for {rc.value} must be >= 1, got {count}"
                )
            prefix = _CLASS_PREFIX[rc]
            for i in range(1, count + 1):
                if rc in telescopic and level_delays_ns is not None:
                    units.append(
                        MultiLevelTelescopicUnit(
                            name=f"T{prefix}{i}",
                            resource_class=rc,
                            delays_ns=tuple(level_delays_ns),
                        )
                    )
                elif rc in telescopic:
                    units.append(
                        TelescopicUnit(
                            name=f"T{prefix}{i}",
                            resource_class=rc,
                            short_delay_ns=short_delay_ns,
                            long_delay_ns=long_delay_ns,
                        )
                    )
                else:
                    units.append(
                        FixedDelayUnit(
                            name=f"{prefix}{i}",
                            resource_class=rc,
                            delay_ns=fixed_delay_ns,
                        )
                    )
        return cls(units=tuple(units))

    @classmethod
    def parse(cls, text: str, **timing) -> "ResourceAllocation":
        """Parse a compact spec string like ``"mul:2T,add:1,sub:1"``.

        A trailing ``T`` marks the class as telescopic.  Timing keyword
        arguments are forwarded to :meth:`build`.
        """
        spec: dict[ResourceClass, int] = {}
        telescopic: list[ResourceClass] = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            match = _SPEC_TOKEN.match(token)
            if not match:
                raise AllocationError(f"bad allocation token {token!r}")
            rc = ResourceClass(match.group("cls"))
            spec[rc] = int(match.group("count"))
            if match.group("tau"):
                telescopic.append(rc)
        return cls.build(spec, telescopic_classes=telescopic, **timing)

    @classmethod
    def paper_default(
        cls, multipliers: int = 2, adders: int = 1, subtractors: int = 0
    ) -> "ResourceAllocation":
        """The paper's Table 2 style allocation (TAU multipliers)."""
        spec = {ResourceClass.MULTIPLIER: multipliers}
        if adders:
            spec[ResourceClass.ADDER] = adders
        if subtractors:
            spec[ResourceClass.SUBTRACTOR] = subtractors
        return cls.build(spec)

    # -- inspection -----------------------------------------------------
    def __iter__(self) -> Iterator[ArithmeticUnit]:
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)

    @cached_property
    def _units_by_name(self) -> dict[str, ArithmeticUnit]:
        return {u.name: u for u in self.units}

    def unit(self, name: str) -> ArithmeticUnit:
        """Look up a unit by name."""
        unit = self._units_by_name.get(name)
        if unit is None:
            raise AllocationError(f"no unit named {name!r}")
        return unit

    def units_of_class(
        self, resource_class: ResourceClass
    ) -> tuple[ArithmeticUnit, ...]:
        """All units serving one resource class, in declaration order."""
        return tuple(
            u for u in self.units if u.resource_class is resource_class
        )

    def count(self, resource_class: ResourceClass) -> int:
        """Number of units of one resource class."""
        return len(self.units_of_class(resource_class))

    def telescopic_units(self) -> tuple[ArithmeticUnit, ...]:
        """All variable-computation-time units in the allocation."""
        return tuple(u for u in self.units if u.is_telescopic)

    # -- timing ---------------------------------------------------------
    def clock_period_ns(self) -> float:
        """The derived system clock period (paper's ``CC_TAU``).

        The smallest period at which something completes every cycle: the
        maximum over telescopic first-level delays and fixed delays.
        """
        return self._clock_period_ns

    @cached_property
    def _clock_period_ns(self) -> float:
        period = 0.0
        for u in self.units:
            if u.is_telescopic:
                period = max(period, u.level_delays_ns[0])
            else:
                period = max(period, u.worst_delay_ns)
        return period

    def original_clock_period_ns(self) -> float:
        """Clock of the conventional design (paper's ``CC``): worst delays."""
        return max(u.worst_delay_ns for u in self.units)

    def cycles_for(self, unit_name: str, fast: bool) -> int:
        """Cycles one operation occupies ``unit_name`` (fast/slow operands).

        The binary view of the paper's Table 2: ``fast`` selects the first
        telescope level, ``slow`` the worst one.
        """
        unit = self.unit(unit_name)
        level = 0 if fast else unit.num_levels - 1
        return self.cycles_for_level(unit_name, level)

    def cycles_for_level(self, unit_name: str, level: int) -> int:
        """Cycles one operation completing at ``level`` occupies a unit."""
        unit = self.unit(unit_name)
        return unit.level_cycles(self.clock_period_ns(), level)

    def max_cycles_for(self, unit_name: str) -> int:
        """Worst-level cycle count of a unit."""
        unit = self.unit(unit_name)
        return self.cycles_for_level(unit_name, unit.num_levels - 1)

    def validate_two_level(self) -> None:
        """Check every TAU fits the paper's two-delay-level model.

        Algorithm 1 generates exactly one extra state per operation
        (``S_i``/``S_i'``), i.e. LD must fit in two clock cycles and SD in
        one.  The library supports deeper telescopes elsewhere; this check
        is for reproducing the paper's exact FSM shapes.
        """
        clock = self.clock_period_ns()
        for u in self.telescopic_units():
            fast = u.level_cycles(clock, 0)
            slow = u.level_cycles(clock, u.num_levels - 1)
            if u.num_levels != 2 or fast != 1 or slow != 2:
                raise AllocationError(
                    f"unit {u.name!r} is not a two-level TAU at clock "
                    f"{clock} ns (levels={u.num_levels}, fast={fast}, "
                    f"slow={slow})"
                )

    def validate_for(self, dfg: DataflowGraph) -> None:
        """Check the allocation covers every resource class of a graph."""
        for rc in dfg.resource_classes():
            if self.count(rc) == 0:
                raise AllocationError(
                    f"graph {dfg.name!r} needs {rc.value} units but the "
                    f"allocation provides none"
                )

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [f"allocation @ clock {self.clock_period_ns():g} ns:"]
        for u in self.units:
            lines.append(f"  {u}")
        return "\n".join(lines)
