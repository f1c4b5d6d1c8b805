"""Completion-signal models for telescopic units.

A completion model answers one question per executed operation: *did this
operand pair belong to the fast group* (completion signal ``C = 1`` within
the short delay)?  The paper evaluates everything in terms of the fast-group
probability ``P``; this module provides that Bernoulli abstraction plus
deterministic, trace-driven and operand-driven (bit-level) models that all
plug into the same simulator.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from ..errors import SimulationError
from .units import ArithmeticUnit


class CompletionModel(abc.ABC):
    """Decides, per operation execution, whether the TAU finishes fast."""

    @abc.abstractmethod
    def is_fast(
        self,
        op_name: str,
        unit: ArithmeticUnit,
        operands: "tuple[int, ...] | None",
        rng: random.Random,
    ) -> bool:
        """Return ``True`` when the completion signal fires within SD.

        ``operands`` carries the concrete operand values when the caller
        runs a value-computing datapath; purely stochastic models ignore
        it.  Fixed-delay units never consult the model.
        """

    def sample_level(
        self,
        op_name: str,
        unit: ArithmeticUnit,
        operands: "tuple[int, ...] | None",
        rng: random.Random,
    ) -> int:
        """Telescope level of one execution (0 = fastest).

        The default maps the binary fast/slow answer onto the first/last
        level — exact for the paper's two-level TAUs; multi-level models
        override this.
        """
        if self.is_fast(op_name, unit, operands, rng):
            return 0
        return unit.num_levels - 1

    def reset(self) -> None:
        """Reset any per-run state (trace cursors, ...)."""


@dataclass
class DelegatingCompletion(CompletionModel):
    """Base for models that wrap and selectively override another model.

    Forwards ``is_fast``/``sample_level``/``reset`` to ``inner`` verbatim;
    subclasses override only the behaviour they change.  This is the hook
    the fault-injection layer (:mod:`repro.faults`) uses to perturb
    completion behaviour without re-implementing the wrapped model.
    """

    inner: CompletionModel

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        return self.inner.is_fast(op_name, unit, operands, rng)

    def sample_level(self, op_name, unit, operands, rng) -> int:
        return self.inner.sample_level(op_name, unit, operands, rng)

    def reset(self) -> None:
        self.inner.reset()


@dataclass
class BernoulliCompletion(CompletionModel):
    """Each execution is fast independently with probability ``p``.

    This is the paper's evaluation model: Table 2 sweeps
    ``P ∈ {0.9, 0.7, 0.5}``.
    """

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise SimulationError(f"P must be in [0, 1], got {self.p}")

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        return rng.random() < self.p


def resolve_unit_probability(
    table: Mapping[str, float], unit: ArithmeticUnit
) -> float:
    """Fast probability for ``unit`` from a per-unit table.

    Lookup order: exact unit name (``TM1``), resource-class value
    (``mul``), then the ``*`` default.  Shared by
    :class:`PerUnitCompletion` and the per-unit spec so the scalar,
    batch and exact engines resolve identically.
    """
    for key in (unit.name, unit.resource_class.value, "*"):
        if key in table:
            return table[key]
    raise SimulationError(
        f"no completion probability for unit {unit.name!r} (class "
        f"{unit.resource_class.value!r}); add a '*' default entry"
    )


def markov_transition_probabilities(
    p_fast: float, stickiness: float
) -> tuple[float, float]:
    """``(p_after_fast, p_after_slow)`` of the sticky completion chain.

    One shared expression so the scalar model and the vectorized batch
    engine threshold with bit-identical floats.  The chain's stationary
    fast probability is exactly ``p_fast``.
    """
    return (
        p_fast + stickiness * (1.0 - p_fast),
        (1.0 - stickiness) * p_fast,
    )


@dataclass
class PerUnitCompletion(CompletionModel):
    """Heterogeneous i.i.d. mix: each unit draws with its own ``p``.

    ``probabilities`` maps unit names, resource-class values or the
    ``*`` default to fast probabilities (see
    :func:`resolve_unit_probability`).
    """

    probabilities: Mapping[str, float]

    def __post_init__(self) -> None:
        for key, p in self.probabilities.items():
            if not 0.0 <= p <= 1.0:
                raise SimulationError(
                    f"P[{key}] must be in [0, 1], got {p}"
                )

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        return rng.random() < resolve_unit_probability(
            self.probabilities, unit
        )


@dataclass
class MarkovCompletion(CompletionModel):
    """Temporally correlated completion: a per-unit two-state chain.

    The first execution on a unit is fast with probability ``p_fast``;
    each later execution is fast with the sticky transition
    probabilities of :func:`markov_transition_probabilities`, keyed by
    that unit's previous outcome.  Exactly one ``rng.random()`` draw
    per execution, so the batch engine replays the stream bit for bit.
    """

    p_fast: float
    stickiness: float
    _last: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fast <= 1.0:
            raise SimulationError(
                f"p_fast must be in [0, 1], got {self.p_fast}"
            )
        if not 0.0 <= self.stickiness < 1.0:
            raise SimulationError(
                f"stickiness must be in [0, 1), got {self.stickiness}"
            )

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        after_fast, after_slow = markov_transition_probabilities(
            self.p_fast, self.stickiness
        )
        last = self._last.get(unit.name)
        if last is None:
            threshold = self.p_fast
        elif last:
            threshold = after_fast
        else:
            threshold = after_slow
        fast = rng.random() < threshold
        self._last[unit.name] = fast
        return fast

    def reset(self) -> None:
        self._last.clear()


@dataclass
class AllFastCompletion(CompletionModel):
    """Best case: every operand pair is in the fast group."""

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        return True


@dataclass
class AllSlowCompletion(CompletionModel):
    """Worst case: every operand pair needs the long delay."""

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        return False


@dataclass
class TraceCompletion(CompletionModel):
    """Replays a fixed per-operation outcome sequence.

    ``trace`` maps an operation name to the sequence of outcomes of its
    successive executions; a missing entry or an exhausted sequence is an
    error (it means the test did not specify the run fully).  Used to pin
    exact scenarios in unit tests and for exhaustive enumeration.
    """

    trace: Mapping[str, Sequence[bool]]
    _cursor: dict[str, int] = field(default_factory=dict, repr=False)

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        if op_name not in self.trace:
            raise SimulationError(f"no completion trace for {op_name!r}")
        index = self._cursor.get(op_name, 0)
        seq = self.trace[op_name]
        if index >= len(seq):
            raise SimulationError(
                f"completion trace for {op_name!r} exhausted after "
                f"{len(seq)} executions"
            )
        self._cursor[op_name] = index + 1
        return bool(seq[index])

    def reset(self) -> None:
        self._cursor.clear()


@dataclass(frozen=True)
class AssignmentCompletion(CompletionModel):
    """A single fast/slow bit per operation (one execution each).

    The analytic latency engine enumerates these assignments exhaustively;
    wrapping one in a completion model lets the cycle-accurate simulator
    replay exactly the same scenario for cross-checking.
    """

    fast: Mapping[str, bool]

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        try:
            return self.fast[op_name]
        except KeyError:
            raise SimulationError(
                f"no fast/slow assignment for {op_name!r}"
            ) from None


@dataclass
class OperandCompletion(CompletionModel):
    """Data-dependent model: ask the unit's bit-level CSG.

    ``csg_by_unit`` maps unit names to completion-signal-generator
    predicates (see :mod:`repro.resources.csg`).  Requires the simulator to
    run with a value-computing datapath so operand values are available.
    """

    csg_by_unit: Mapping[str, "object"]

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        if operands is None:
            raise SimulationError(
                "OperandCompletion needs concrete operand values; run the "
                "simulator with a value-computing datapath"
            )
        try:
            csg = self.csg_by_unit[unit.name]
        except KeyError:
            raise SimulationError(
                f"no completion-signal generator for unit {unit.name!r}"
            ) from None
        return bool(csg.is_fast(*operands))


@dataclass
class CategoricalCompletion(CompletionModel):
    """Independent categorical level outcomes (multi-level VCAUs).

    ``probabilities[i]`` is the chance an execution completes at level
    ``i``; must sum to 1.  ``is_fast`` reports level 0 for binary callers.
    """

    probabilities: Sequence[float]

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise SimulationError("need at least one level probability")
        if any(p < 0 for p in self.probabilities):
            raise SimulationError("level probabilities must be >= 0")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-9:
            raise SimulationError(
                f"level probabilities must sum to 1, got {total}"
            )

    def sample_level(self, op_name, unit, operands, rng) -> int:
        if len(self.probabilities) != unit.num_levels:
            raise SimulationError(
                f"{len(self.probabilities)} level probabilities but unit "
                f"{unit.name!r} has {unit.num_levels} levels"
            )
        draw = rng.random()
        acc = 0.0
        for level, p in enumerate(self.probabilities):
            acc += p
            if draw < acc:
                return level
        return len(self.probabilities) - 1

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        return self.sample_level(op_name, unit, operands, rng) == 0


@dataclass(frozen=True)
class LevelAssignmentCompletion(CompletionModel):
    """A fixed telescope level per operation (exact multi-level scenarios)."""

    levels: Mapping[str, int]

    def sample_level(self, op_name, unit, operands, rng) -> int:
        try:
            level = self.levels[op_name]
        except KeyError:
            raise SimulationError(
                f"no level assignment for {op_name!r}"
            ) from None
        if not 0 <= level < unit.num_levels:
            raise SimulationError(
                f"level {level} out of range for unit {unit.name!r}"
            )
        return level

    def is_fast(self, op_name, unit, operands, rng) -> bool:
        return self.sample_level(op_name, unit, operands, rng) == 0
