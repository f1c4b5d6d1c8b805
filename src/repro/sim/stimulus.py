"""Input and completion stimulus for simulations.

Produces per-input value streams (one value per dataflow iteration) drawn
from named operand distributions, so operand-dependent completion models
(:class:`~repro.resources.completion.OperandCompletion`) can be driven
with statistically meaningful data — uniform full-scale words or
DSP-like small samples.

It also defines :class:`CounterexampleStimulus`, the replayable form of
a model-checker counterexample: the telescope-level assignment that
drove the composed controller network into a violating state, packaged
so one :meth:`~CounterexampleStimulus.replay` call reproduces the
violation as the matching runtime error in the cycle-accurate
simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING

from ..core.dfg import DataflowGraph
from ..errors import DeadlockError, ProtocolError, VerificationError

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..binding.binder import BoundDataflowGraph
    from ..errors import SimulationError
    from ..resources.completion import LevelAssignmentCompletion
    from .controllers import ControllerSystem


@dataclass(frozen=True)
class ValueDistribution:
    """A named generator of single operand values."""

    name: str
    sampler: Callable[[random.Random], int]

    def sample(self, rng: random.Random) -> int:
        return self.sampler(rng)


def uniform_values(width: int) -> ValueDistribution:
    """Values uniform over the full ``width``-bit range."""
    limit = (1 << width) - 1
    return ValueDistribution(
        name=f"uniform{width}", sampler=lambda rng: rng.randint(0, limit)
    )


def small_values(width: int, active_bits: int) -> ValueDistribution:
    """Values confined to the low ``active_bits`` bits (DSP samples)."""
    limit = (1 << min(active_bits, width)) - 1
    return ValueDistribution(
        name=f"small{active_bits}of{width}",
        sampler=lambda rng: rng.randint(0, limit),
    )


def input_streams(
    dfg: DataflowGraph,
    distribution: ValueDistribution,
    iterations: int = 1,
    seed: int = 0,
) -> dict[str, list[int]]:
    """One value per iteration for every primary input of a graph."""
    rng = random.Random(seed)
    return {
        name: [distribution.sample(rng) for _ in range(iterations)]
        for name in dfg.inputs
    }


@dataclass(frozen=True)
class CounterexampleStimulus:
    """A replayable model-checker counterexample.

    The model checker's only source of nondeterminism is the telescope
    level each operation completes at, so a violating run is fully
    described by one level per operation (``levels``, sorted pairs).
    Replaying those levels through a
    :class:`~repro.resources.completion.LevelAssignmentCompletion`
    deterministically re-creates the violating trajectory in the
    cycle-accurate simulator.

    ``expects`` names the runtime error class the replay must raise:
    ``"deadlock"`` (:class:`~repro.errors.DeadlockError`) or
    ``"protocol"`` (:class:`~repro.errors.ProtocolError`).
    """

    design: str
    rule_id: str
    expects: str
    levels: tuple[tuple[str, int], ...]
    depth: int = 0
    description: str = ""
    handshake: bool = True

    def __post_init__(self) -> None:
        if self.expects not in ("deadlock", "protocol"):
            raise VerificationError(
                f"counterexample expects {self.expects!r}; choose "
                f"'deadlock' or 'protocol'"
            )

    def completion_model(self) -> "LevelAssignmentCompletion":
        """The fixed level-per-op completion model of this trajectory."""
        from ..resources.completion import LevelAssignmentCompletion

        return LevelAssignmentCompletion(levels=dict(self.levels))

    def replay(
        self,
        system: "ControllerSystem",
        bound: "BoundDataflowGraph",
        max_cycles: "int | None" = None,
    ) -> "SimulationError":
        """Reproduce the violation in the simulator and return the error.

        Runs one dataflow iteration under the counterexample's level
        assignment with every runtime monitor armed (token-overrun
        checking per ``handshake``).  Raises
        :class:`~repro.errors.VerificationError` if the simulation does
        *not* raise the expected error — the one outcome a sound
        counterexample must never produce.
        """
        from .simulator import MonitorConfig, simulate

        expected: type
        expected = (
            DeadlockError if self.expects == "deadlock" else ProtocolError
        )
        try:
            simulate(
                system,
                bound,
                self.completion_model(),
                iterations=1,
                max_cycles=max_cycles,
                monitors=MonitorConfig(handshake=self.handshake),
            )
        except expected as exc:
            return exc
        raise VerificationError(
            f"counterexample for {self.rule_id} on design "
            f"{self.design!r} did not reproduce: the simulator raised "
            f"no {self.expects} error under levels {dict(self.levels)}"
        )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "rule_id": self.rule_id,
            "expects": self.expects,
            "levels": [[op, level] for op, level in self.levels],
            "depth": self.depth,
            "description": self.description,
            "handshake": self.handshake,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CounterexampleStimulus":
        return cls(
            design=str(payload["design"]),
            rule_id=str(payload["rule_id"]),
            expects=str(payload["expects"]),
            levels=tuple(
                (str(op), int(level)) for op, level in payload["levels"]
            ),
            depth=int(payload.get("depth", 0)),
            description=str(payload.get("description", "")),
            handshake=bool(payload.get("handshake", True)),
        )
