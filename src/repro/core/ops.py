"""Operation types for dataflow graphs.

The paper's benchmarks use the classic high-level-synthesis operation mix:
multiplications (the expensive operations that get mapped onto telescopic
arithmetic units), additions, subtractions and comparisons.  This module
defines the operation vocabulary, the *resource class* each operation
competes for, and a reference evaluator used by the value-computing
datapath simulator.
"""

from __future__ import annotations

import enum
from collections.abc import Callable


class ResourceClass(str, enum.Enum):
    """The kind of arithmetic unit an operation executes on.

    Operations of the same resource class compete for the same pool of
    allocated units.  The paper allocates multipliers (possibly telescopic),
    adders and subtractors; comparisons are served by the subtractor class
    (a comparator is a subtractor whose sum output is unused), mirroring the
    usual HLS convention for the HAL differential-equation benchmark.
    """

    MULTIPLIER = "mul"
    ADDER = "add"
    SUBTRACTOR = "sub"
    ALU = "alu"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _evaluate_less(a: int, b: int) -> int:
    return 1 if a < b else 0


class OpType(enum.Enum):
    """An operation type: symbol, arity, resource class and evaluator."""

    MUL = ("*", 2, ResourceClass.MULTIPLIER, lambda a, b: a * b, True)
    ADD = ("+", 2, ResourceClass.ADDER, lambda a, b: a + b, True)
    SUB = ("-", 2, ResourceClass.SUBTRACTOR, lambda a, b: a - b, False)
    LT = ("<", 2, ResourceClass.SUBTRACTOR, _evaluate_less, False)
    SHL = ("<<", 2, ResourceClass.ALU, lambda a, b: a << b, False)
    SHR = (">>", 2, ResourceClass.ALU, lambda a, b: a >> b, False)
    NEG = ("neg", 1, ResourceClass.SUBTRACTOR, lambda a: -a, False)

    def __init__(
        self,
        symbol: str,
        arity: int,
        resource_class: ResourceClass,
        evaluator: Callable[..., int],
        commutative: bool,
    ) -> None:
        self.symbol = symbol
        self.arity = arity
        self.resource_class = resource_class
        self.evaluator = evaluator
        self.commutative = commutative

    def evaluate(self, *operands: int) -> int:
        """Apply this operation to concrete operand values."""
        if len(operands) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} operands, got {len(operands)}"
            )
        return self.evaluator(*operands)

    def __reduce_ex__(self, protocol: int):
        # Enums with tuple values pickle *by value* by default — and this
        # value tuple holds a lambda, which made every design object
        # (hence every parallel work item) silently unpicklable.  Pickle
        # by name instead so designs cross process boundaries.
        return getattr, (type(self), self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpType.{self.name}"


#: Operation types that the paper maps onto telescopic units by default.
DEFAULT_TELESCOPIC_CLASSES = frozenset({ResourceClass.MULTIPLIER})
