"""Cubes and single-output boolean functions for two-level minimization.

The area numbers of the paper's Table 1 come from synthesizing controller
FSMs to gates.  We reproduce the *relative* area story with a two-level
model: every next-state bit and output signal of an encoded FSM is a
boolean function, minimized to a sum-of-products cover whose literal count
is the combinational area contribution.  This module provides the cube
algebra that minimization runs on.

A cube over ``n`` variables is a pair of bit masks ``(care, value)``:
variable ``i`` is specified iff bit ``i`` of ``care`` is set, in which case
its required value is bit ``i`` of ``value``.  The empty-care cube is the
tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LogicError


@dataclass(frozen=True, order=True)
class Cube:
    """A product term (conjunction of literals) over ``width`` variables."""

    width: int
    care: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise LogicError("cube width must be >= 0")
        mask = (1 << self.width) - 1
        if self.care & ~mask:
            raise LogicError("care mask exceeds cube width")
        if self.value & ~self.care:
            raise LogicError("value bits set outside the care mask")

    # -- constructors ----------------------------------------------------

    @classmethod
    def minterm(cls, width: int, index: int) -> "Cube":
        """The fully specified cube equal to one minterm."""
        mask = (1 << width) - 1
        if index & ~mask:
            raise LogicError(f"minterm {index} out of range for width {width}")
        return cls(width=width, care=mask, value=index)

    # -- algebra -----------------------------------------------------------
    @property
    def num_literals(self) -> int:
        """Number of literals in the product term."""
        return bin(self.care).count("1")

    def contains(self, minterm: int) -> bool:
        """Whether a fully specified input point satisfies this cube."""
        return (minterm & self.care) == self.value

    def merge_distance_one(self, other: "Cube") -> "Cube | None":
        """Combine two cubes differing in exactly one specified bit.

        The Quine–McCluskey combination step: identical care masks and
        values differing in one bit merge into a cube with that bit freed.
        Returns ``None`` when the cubes do not combine.
        """
        if self.width != other.width or self.care != other.care:
            return None
        diff = self.value ^ other.value
        if diff == 0 or diff & (diff - 1):
            return None  # zero or more than one differing bit
        return Cube(
            width=self.width, care=self.care & ~diff, value=self.value & ~diff
        )

    def to_string(self) -> str:
        """Render as ``"1-0"`` style text (index 0 leftmost)."""
        chars = []
        for i in range(self.width):
            if not (self.care >> i) & 1:
                chars.append("-")
            elif (self.value >> i) & 1:
                chars.append("1")
            else:
                chars.append("0")
        return "".join(chars)

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class BooleanFunction:
    """An incompletely specified single-output function.

    ``ones`` are required-1 minterms, ``dont_cares`` may be either value;
    everything else is required 0.  ``width`` is the input count.
    """

    width: int
    ones: frozenset[int]
    dont_cares: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        limit = 1 << self.width
        for point in self.ones | self.dont_cares:
            if not 0 <= point < limit:
                raise LogicError(
                    f"minterm {point} out of range for width {self.width}"
                )
        if self.ones & self.dont_cares:
            raise LogicError("minterm marked both one and don't-care")

    @property
    def is_constant_zero(self) -> bool:
        return not self.ones

    @property
    def is_constant_one(self) -> bool:
        return len(self.ones | self.dont_cares) == 1 << self.width and bool(
            self.ones
        )

    def value_at(self, minterm: int) -> "bool | None":
        """Required value at a point (``None`` for don't-care)."""
        if minterm in self.ones:
            return True
        if minterm in self.dont_cares:
            return None
        return False
