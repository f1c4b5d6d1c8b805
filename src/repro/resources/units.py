"""Arithmetic unit models.

Two kinds of units exist in the paper's datapaths:

* **Fixed-delay units** — classic synchronous arithmetic logic with one
  worst-case delay (``FD``); they always take one clock cycle.
* **Telescopic arithmetic units (TAUs)** — Fig. 1 of the paper: the same
  arithmetic logic plus a *completion signal generator* (CSG).  Operands in
  the "fast" group settle within the short delay ``SD`` (one clock cycle at
  the SD-based clock); all others need the long delay ``LD`` (a second
  cycle).  The CSG raises ``C = 1`` for fast operands.

The classes here are pure timing/identity models; the data-dependent delay
physics lives in :mod:`repro.resources.bitlevel` and the stochastic
abstraction in :mod:`repro.resources.completion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.ops import ResourceClass
from ..errors import AllocationError


@dataclass(frozen=True)
class ArithmeticUnit:
    """Base class: a named unit serving one resource class."""

    name: str
    resource_class: ResourceClass

    @property
    def is_telescopic(self) -> bool:
        """Whether this unit has a variable computation time."""
        return False

    @property
    def worst_delay_ns(self) -> float:
        """Worst-case combinational delay of the arithmetic logic."""
        raise NotImplementedError

    @property
    def level_delays_ns(self) -> tuple[float, ...]:
        """Delay of every telescope level, ascending (one level = fixed).

        The paper's TAU is the two-level instance (SD, LD); other
        synchronous VCAUs expose more levels, which Algorithm 1 handles by
        chaining extension states (§6, "other types of VCAUs").
        """
        return (self.worst_delay_ns,)

    @property
    def num_levels(self) -> int:
        """Number of telescope levels."""
        return len(self.level_delays_ns)

    def level_cycles(self, clock_ns: float, level: int) -> int:
        """Clock cycles an operation completing at ``level`` occupies."""
        delay = self.level_delays_ns[level]
        return max(1, math.ceil(delay / clock_ns - 1e-9))

    def completion_signal_name(self) -> str:
        """Name of this unit's completion signal wire (``C_<unit>``)."""
        return f"C_{self.name}"


@dataclass(frozen=True)
class FixedDelayUnit(ArithmeticUnit):
    """A conventional synchronous unit with one fixed delay ``FD``."""

    delay_ns: float = 15.0

    def __post_init__(self) -> None:
        if self.delay_ns <= 0:
            raise AllocationError(
                f"unit {self.name!r}: delay must be positive"
            )

    @property
    def worst_delay_ns(self) -> float:
        return self.delay_ns

    def cycles(self, clock_ns: float) -> int:
        """Number of clock cycles one operation occupies this unit."""
        return max(1, math.ceil(self.delay_ns / clock_ns - 1e-9))

    def __str__(self) -> str:
        return f"{self.name}({self.resource_class.value}, FD={self.delay_ns}ns)"


@dataclass(frozen=True)
class TelescopicUnit(ArithmeticUnit):
    """A telescopic arithmetic unit with short/long delays (paper Fig. 1)."""

    short_delay_ns: float = 15.0
    long_delay_ns: float = 20.0

    def __post_init__(self) -> None:
        if self.short_delay_ns <= 0:
            raise AllocationError(
                f"unit {self.name!r}: short delay must be positive"
            )
        if self.long_delay_ns <= self.short_delay_ns:
            raise AllocationError(
                f"unit {self.name!r}: long delay ({self.long_delay_ns}) must "
                f"exceed short delay ({self.short_delay_ns}); otherwise the "
                f"unit is effectively fixed-delay"
            )

    @property
    def is_telescopic(self) -> bool:
        return True

    @property
    def worst_delay_ns(self) -> float:
        return self.long_delay_ns

    @property
    def level_delays_ns(self) -> tuple[float, ...]:
        return (self.short_delay_ns, self.long_delay_ns)

    def fast_cycles(self, clock_ns: float) -> int:
        """Cycles taken by a fast (``C = 1``) operand pair."""
        return max(1, math.ceil(self.short_delay_ns / clock_ns - 1e-9))

    def slow_cycles(self, clock_ns: float) -> int:
        """Cycles taken by a slow (``C = 0``) operand pair."""
        return max(1, math.ceil(self.long_delay_ns / clock_ns - 1e-9))

    def __str__(self) -> str:
        return (
            f"{self.name}({self.resource_class.value}, "
            f"SD={self.short_delay_ns}ns, LD={self.long_delay_ns}ns)"
        )


@dataclass(frozen=True)
class MultiLevelTelescopicUnit(ArithmeticUnit):
    """A variable-computation-time unit with more than two delay levels.

    The paper's §6 future-work generalization: the completion signal
    generator reports completion after whichever level covers the current
    operands.  Algorithm 1 handles it by chaining one extension state per
    extra clock cycle of the worst level; the synchronized baseline
    extends a time step until every unit reports done.
    """

    delays_ns: tuple[float, ...] = (10.0, 15.0, 20.0)

    def __post_init__(self) -> None:
        if len(self.delays_ns) < 2:
            raise AllocationError(
                f"unit {self.name!r}: a multi-level telescopic unit needs "
                f"at least two levels"
            )
        if any(d <= 0 for d in self.delays_ns):
            raise AllocationError(
                f"unit {self.name!r}: level delays must be positive"
            )
        if list(self.delays_ns) != sorted(self.delays_ns) or len(
            set(self.delays_ns)
        ) != len(self.delays_ns):
            raise AllocationError(
                f"unit {self.name!r}: level delays must be strictly "
                f"ascending, got {self.delays_ns}"
            )

    @property
    def is_telescopic(self) -> bool:
        return True

    @property
    def worst_delay_ns(self) -> float:
        return self.delays_ns[-1]

    @property
    def level_delays_ns(self) -> tuple[float, ...]:
        return self.delays_ns

    def __str__(self) -> str:
        levels = "/".join(f"{d:g}" for d in self.delays_ns)
        return f"{self.name}({self.resource_class.value}, levels={levels}ns)"
