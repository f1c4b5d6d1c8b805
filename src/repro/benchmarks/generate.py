"""Seeded parametric DFG families (``gen:...`` benchmark names).

The ten fixed benchmarks cap scenario diversity; this module grows the
registry with *generated* families — layered random DAGs whose shape is
controlled by five parameters and whose construction is a pure function
of the canonical parameter string:

``ops``
    total operation count (2..63, the batch engine's mask width),
``depth``
    number of dataflow layers; every non-first layer consumes at least
    one value produced by the layer directly above it, so the critical
    path really is ``depth`` operations deep,
``fanout``
    maximum consumers of any produced value (inputs included) — low
    fan-out yields near-chains, high fan-out yields broad reuse,
``mix``
    relative ``mul-add-sub`` op-type weights (e.g. ``2-1-1``),
``pressure``
    resource pressure: how many same-class operations share one
    arithmetic unit (units per class = ``ceil(count / pressure)``).
    Multipliers are allocated telescopic, matching the paper's setup.

Names parse with :func:`parse_family` and canonicalize to a fixed key
order, e.g. ``gen:ops=12,depth=4,fanout=2,mix=2-2-1,pressure=3,seed=0``;
:func:`family_entry` materializes the corresponding
:class:`~repro.benchmarks.registry.BenchmarkEntry`, which
``registry.benchmark()`` does automatically for any ``gen:`` name — so
simulation, bench, fault campaigns and the verify/lint gate consume
generated families with zero special-casing.  Everything derives
from ``random.Random("dfg:" + canonical_name)``: the same name yields a
byte-identical graph in any process, forever.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..core.builder import DFGBuilder
from ..core.dfg import DataflowGraph
from ..errors import ReproError

#: ``gen:`` parameter defaults, in canonical key order.
_DEFAULTS = (
    ("ops", 12),
    ("depth", 4),
    ("fanout", 2),
    ("mix", "2-2-1"),
    ("pressure", 3),
    ("seed", 0),
)

#: op-type order the ``mix`` weights refer to
_CLASSES = ("mul", "add", "sub")

#: the batch engine packs completions into one int64 — stay inside it
_MAX_OPS = 63


@dataclass(frozen=True)
class FamilySpec:
    """One generated-family point: the parsed ``gen:`` parameters."""

    ops: int = 12
    depth: int = 4
    fanout: int = 2
    mix: str = "2-2-1"
    pressure: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.ops <= _MAX_OPS:
            raise ReproError(
                f"gen: ops must be in [2, {_MAX_OPS}], got {self.ops}"
            )
        if not 1 <= self.depth <= self.ops:
            raise ReproError(
                f"gen: depth must be in [1, ops], got {self.depth}"
            )
        if self.fanout < 1:
            raise ReproError(
                f"gen: fanout must be >= 1, got {self.fanout}"
            )
        if self.pressure < 1:
            raise ReproError(
                f"gen: pressure must be >= 1, got {self.pressure}"
            )
        if not self.mix_weights():
            raise ReproError(
                f"gen: mix needs at least one positive weight, "
                f"got {self.mix!r}"
            )

    def mix_weights(self) -> dict[str, int]:
        """Positive op-class weights parsed from ``mix``."""
        parts = self.mix.split("-")
        if len(parts) != len(_CLASSES):
            raise ReproError(
                f"gen: mix is MUL-ADD-SUB weights, got {self.mix!r}"
            )
        weights = {}
        for cls, part in zip(_CLASSES, parts):
            try:
                weight = int(part)
            except ValueError:
                raise ReproError(
                    f"gen: mix weight {part!r} is not an integer"
                ) from None
            if weight < 0:
                raise ReproError(
                    f"gen: mix weights must be >= 0, got {weight}"
                )
            if weight:
                weights[cls] = weight
        return weights

    @property
    def name(self) -> str:
        """The canonical ``gen:`` benchmark name (fixed key order)."""
        return "gen:" + ",".join(
            f"{key}={getattr(self, key)}" for key, _ in _DEFAULTS
        )

    def title(self) -> str:
        return (
            f"generated {self.ops}-op depth-{self.depth} family "
            f"(seed {self.seed})"
        )


def parse_family(name: str) -> FamilySpec:
    """Parse a ``gen:...`` benchmark name (any key order, defaults ok)."""
    prefix, sep, args = name.partition(":")
    if prefix != "gen" or not sep:
        raise ReproError(f"not a generated-family name: {name!r}")
    values: dict[str, object] = dict(_DEFAULTS)
    for item in args.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in values:
            raise ReproError(
                f"gen: parameters are "
                f"{'/'.join(k for k, _ in _DEFAULTS)}, got {item!r}"
            )
        if key == "mix":
            values[key] = value.strip()
        else:
            try:
                values[key] = int(value)
            except ValueError:
                raise ReproError(
                    f"gen: {key} must be an integer, got {value!r}"
                ) from None
    return FamilySpec(**values)  # type: ignore[arg-type]


def _layer_sizes(spec: FamilySpec) -> list[int]:
    """Distribute ``ops`` over ``depth`` layers, extras to early layers."""
    base, extra = divmod(spec.ops, spec.depth)
    return [base + (1 if i < extra else 0) for i in range(spec.depth)]


def generate_dfg(spec: FamilySpec) -> DataflowGraph:
    """Build the family's dataflow graph (pure function of the spec)."""
    rng = random.Random(f"dfg:{spec.name}")
    builder = DFGBuilder(spec.name)
    weights = spec.mix_weights()
    classes = sorted(weights)
    class_weights = [weights[c] for c in classes]
    make = {
        "mul": builder.mul,
        "add": builder.add,
        "sub": builder.sub,
    }
    # every produced value (input or op output) carries a remaining
    # fan-out budget; ops draw operands from budgeted values only
    budget: dict[object, int] = {}
    inputs = 0
    consumers: dict[str, int] = {}

    def fresh_input():
        nonlocal inputs
        ref = builder.input(f"x{inputs}")
        inputs += 1
        budget[ref] = spec.fanout
        return ref

    def consume(candidates) -> object:
        pool = [ref for ref in candidates if budget.get(ref, 0) > 0]
        ref = rng.choice(pool) if pool else fresh_input()
        budget[ref] -= 1
        produced_by = getattr(ref, "op", None)
        if produced_by in consumers:
            consumers[produced_by] += 1
        return ref

    previous: list = []  # refs produced by the layer directly above
    earlier: list = []  # refs produced by any completed layer
    count = 0
    for layer, size in enumerate(_layer_sizes(spec)):
        produced = []
        for _ in range(size):
            cls = rng.choices(classes, weights=class_weights)[0]
            count += 1
            # the first operand ties the op to the previous layer so the
            # graph is genuinely `depth` layers deep; the second reuses
            # anything older (or a fresh input when budgets ran dry)
            a = consume(previous) if layer else fresh_input()
            second_pool = [r for r in earlier + previous if r is not a]
            b = consume(second_pool)
            ref = make[cls](f"{cls[0]}{count}", a, b)
            budget[ref] = spec.fanout
            consumers[ref.op] = 0
            produced.append(ref)
        earlier.extend(previous)
        previous = produced
    sinks = [name for name, n in sorted(consumers.items()) if n == 0]
    for i, name in enumerate(sinks):
        builder.output(f"y{i}", name)
    return builder.build()


def family_allocation_spec(spec: FamilySpec) -> str:
    """Allocation string under the family's resource pressure.

    Each op class present gets ``ceil(count / pressure)`` units;
    multipliers are telescopic (``T``), matching the paper's benchmarks.
    """
    dfg = generate_dfg(spec)
    counts: dict[str, int] = {}
    for op in dfg:
        cls = op.op_type.resource_class.value
        counts[cls] = counts.get(cls, 0) + 1
    parts = []
    for cls in _CLASSES:
        if cls in counts:
            units = max(1, math.ceil(counts[cls] / spec.pressure))
            suffix = "T" if cls == "mul" else ""
            parts.append(f"{cls}:{units}{suffix}")
    return ",".join(parts)


def family_entry(spec: FamilySpec):
    """The :class:`BenchmarkEntry` realizing one generated family."""
    from .registry import BenchmarkEntry

    return BenchmarkEntry(
        name=spec.name,
        title=spec.title(),
        factory=lambda: generate_dfg(spec),
        allocation_spec=family_allocation_spec(spec),
        in_table2=False,
        generated=True,
    )
