"""Synchronous Mealy FSM model for control units.

Guards are conjunctions of input literals (cubes); a state's outgoing
transitions must be *deterministic* (no two guards overlap) and *complete*
(every input combination matches), which :meth:`FSM.validate` enforces by
exhaustive enumeration over the inputs each state actually references.

Transitions carry two pieces of semantic metadata the paper's figures rely
on (and the simulator interprets):

* ``starts`` — operations that begin executing in the *target* state's
  cycle because this transition was taken,
* ``completes`` — operations that finish during the *source* state's cycle
  when this transition is taken.

Metadata never affects the logic-level view (area, Verilog); it is the
bridge between the FSM artifact and the cycle-accurate semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from ..errors import FSMError


@dataclass(frozen=True)
class Transition:
    """One guarded transition of a Mealy FSM.

    ``queries`` names the operation whose predecessor-completion tokens the
    guard's ``CC_*`` literals examine (``None`` when the guard has no such
    literals).  The controller runtime needs it because completion-arrival
    latches are kept per dependence *edge*: the same ``CC_p`` wire reads a
    different latch depending on which waiting operation asks.
    """

    source: str
    target: str
    guard: tuple[tuple[str, bool], ...] = ()
    outputs: frozenset[str] = frozenset()
    starts: frozenset[str] = frozenset()
    completes: frozenset[str] = frozenset()
    queries: "str | None" = None

    def __post_init__(self) -> None:
        names = [n for n, _ in self.guard]
        if len(set(names)) != len(names):
            raise FSMError(f"guard references a signal twice: {self.guard}")
        object.__setattr__(self, "guard", tuple(sorted(self.guard)))

    def matches(self, inputs: Mapping[str, bool]) -> bool:
        """Whether the guard holds under an input valuation."""
        for name, required in self.guard:
            if name not in inputs:
                raise FSMError(f"input {name!r} missing from valuation")
            if bool(inputs[name]) != required:
                return False
        return True

    def guard_str(self) -> str:
        """Human-readable guard text (``C_T·CC_o3'`` style)."""
        if not self.guard:
            return "1"
        parts = [
            name if required else f"{name}'" for name, required in self.guard
        ]
        return "·".join(parts)

    def __str__(self) -> str:
        outs = " ".join(sorted(self.outputs)) or "-"
        return f"{self.source} --[{self.guard_str()}]/{outs}--> {self.target}"


def make_transition(
    source: str,
    target: str,
    guard: "Mapping[str, bool] | None" = None,
    outputs: Iterable[str] = (),
    starts: Iterable[str] = (),
    completes: Iterable[str] = (),
    queries: "str | None" = None,
) -> Transition:
    """Convenience constructor accepting plain mappings/iterables."""
    return Transition(
        source=source,
        target=target,
        guard=tuple(sorted((guard or {}).items())),
        outputs=frozenset(outputs),
        starts=frozenset(starts),
        completes=frozenset(completes),
        queries=queries,
    )


@dataclass(frozen=True)
class FSM:
    """A deterministic, complete synchronous Mealy machine."""

    name: str
    states: tuple[str, ...]
    initial: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    transitions: tuple[Transition, ...]
    initial_starts: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states):
            raise FSMError(f"FSM {self.name!r} has duplicate states")
        if self.initial not in self.states:
            raise FSMError(
                f"FSM {self.name!r}: initial state {self.initial!r} unknown"
            )
        state_set = set(self.states)
        input_set = set(self.inputs)
        output_set = set(self.outputs)
        for t in self.transitions:
            if t.source not in state_set or t.target not in state_set:
                raise FSMError(f"transition {t} references unknown states")
            for name, _ in t.guard:
                if name not in input_set:
                    raise FSMError(
                        f"transition {t} guards on undeclared input {name!r}"
                    )
            if not t.outputs <= output_set:
                raise FSMError(
                    f"transition {t} asserts undeclared outputs "
                    f"{sorted(t.outputs - output_set)}"
                )
        # Per-state transition index: ``step`` runs once per controller
        # per simulated clock edge, so the linear scan over *all*
        # transitions it replaces dominated large simulations.
        by_source: dict[str, list[Transition]] = {s: [] for s in self.states}
        for t in self.transitions:
            by_source[t.source].append(t)
        object.__setattr__(
            self,
            "_by_source",
            {s: tuple(ts) for s, ts in by_source.items()},
        )

    # -- structure -------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def transitions_from(self, state: str) -> tuple[Transition, ...]:
        """Outgoing transitions of a state, declaration order."""
        by_source = self._by_source  # type: ignore[attr-defined]
        try:
            return by_source[state]
        except KeyError:
            return ()

    def referenced_inputs(self, state: str) -> tuple[str, ...]:
        """Inputs appearing in some guard of a state, sorted."""
        names: set[str] = set()
        for t in self.transitions_from(state):
            names.update(n for n, _ in t.guard)
        return tuple(sorted(names))

    # -- validation --------------------------------------------------------
    def validate(self) -> None:
        """Enforce determinism and completeness of every state.

        For each state, enumerate every valuation of the inputs its guards
        reference and require exactly one matching transition.
        """
        for state in self.states:
            outgoing = self.transitions_from(state)
            if not outgoing:
                raise FSMError(
                    f"FSM {self.name!r}: state {state!r} has no transitions"
                )
            names = self.referenced_inputs(state)
            for values in itertools.product((False, True), repeat=len(names)):
                valuation = dict(zip(names, values))
                matching = [t for t in outgoing if t.matches(valuation)]
                if len(matching) == 0:
                    raise FSMError(
                        f"FSM {self.name!r}: state {state!r} incomplete "
                        f"under {valuation}"
                    )
                if len(matching) > 1:
                    raise FSMError(
                        f"FSM {self.name!r}: state {state!r} "
                        f"nondeterministic under {valuation}: "
                        f"{[str(t) for t in matching]}"
                    )

    # -- execution -----------------------------------------------------------
    def step(
        self, state: str, inputs: Mapping[str, bool]
    ) -> Transition:
        """The unique transition taken from ``state`` under ``inputs``.

        ``inputs`` must provide values for every input the state's guards
        reference (providing all declared inputs is always safe).
        """
        for t in self.transitions_from(state):
            if t.matches(inputs):
                return t
        raise FSMError(
            f"FSM {self.name!r}: no transition from {state!r} under "
            f"{dict(inputs)}"
        )

    # -- reporting ----------------------------------------------------------
    def logical_transitions(
        self,
    ) -> tuple[tuple[str, str, frozenset[str], tuple[Transition, ...]], ...]:
        """Group guard cubes by (source, target, outputs).

        The paper draws one edge per *logical* transition (e.g. the ten
        numbered edges of Fig. 6) even when its guard is a disjunction the
        cube representation splits; this view restores that level.
        """
        groups: dict[
            tuple[str, str, frozenset[str]], list[Transition]
        ] = {}
        for t in self.transitions:
            groups.setdefault((t.source, t.target, t.outputs), []).append(t)
        return tuple(
            (src, dst, outs, tuple(cubes))
            for (src, dst, outs), cubes in groups.items()
        )

    def describe(self) -> str:
        """Multi-line listing of states and transitions."""
        lines = [
            f"FSM {self.name!r}: {self.num_states} states, "
            f"{len(self.inputs)} inputs, {len(self.outputs)} outputs, "
            f"initial {self.initial!r}"
        ]
        for t in self.transitions:
            lines.append(f"  {t}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """GraphViz rendering with logical (grouped) edges."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for state in self.states:
            shape = "doublecircle" if state == self.initial else "circle"
            lines.append(f'  "{state}" [shape={shape}];')
        for src, dst, outs, cubes in self.logical_transitions():
            guard = " + ".join(c.guard_str() for c in cubes)
            label = f"{guard} / {' '.join(sorted(outs)) or '-'}"
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def not_all_cubes(signals: Sequence[str]) -> tuple[dict[str, bool], ...]:
    """Disjoint cubes covering ``NOT (AND of signals)``.

    The paper writes guards like ``(C_PO s)'`` — "not all predecessors
    done".  That is not a single conjunction, so builders expand it into
    the standard disjoint chain: ``s0'``, ``s0·s1'``, ``s0·s1·s2'``, ...
    """
    cubes = []
    for i, signal in enumerate(signals):
        cube = {s: True for s in signals[:i]}
        cube[signal] = False
        cubes.append(cube)
    return tuple(cubes)


def all_cube(signals: Sequence[str]) -> dict[str, bool]:
    """The conjunction cube requiring every signal high."""
    return {s: True for s in signals}
