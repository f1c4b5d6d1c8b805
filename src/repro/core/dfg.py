"""Dataflow graph (DFG) data model.

A :class:`DataflowGraph` is the behavioural input of the whole flow: a set of
arithmetic operations connected by data dependencies, with named primary
inputs and primary outputs.  It deliberately carries *no* scheduling or
binding information — those are layered on top by :mod:`repro.scheduling`
and :mod:`repro.binding` so a single graph can be scheduled many ways.

Operands are represented explicitly as one of three source kinds:

* :class:`InputRef` — a primary input of the graph,
* :class:`ConstRef` — a literal constant (filter coefficients, ``3``, ...),
* :class:`OpRef` — the result of another operation.

Only :class:`OpRef` operands induce graph edges (the *direct predecessor /
successor* relation of the paper, §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Mapping

from ..errors import GraphError
from .ops import OpType, ResourceClass


@dataclass(frozen=True)
class InputRef:
    """Operand taken from a primary input."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstRef:
    """Operand taken from a literal constant."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class OpRef:
    """Operand taken from the result of another operation."""

    op: str

    def __str__(self) -> str:
        return self.op


Operand = InputRef | ConstRef | OpRef


def as_operand(source: "Operand | str | int") -> Operand:
    """Coerce a convenience value into an :class:`Operand`.

    Strings are resolved later by the graph (operation name if one exists,
    otherwise primary input); integers become constants.
    """
    if isinstance(source, (InputRef, ConstRef, OpRef)):
        return source
    if isinstance(source, bool):
        raise GraphError("booleans are not valid operands")
    if isinstance(source, int):
        return ConstRef(source)
    if isinstance(source, str):
        # Resolution against the graph happens in DataflowGraph.add_op.
        return OpRef(source)
    raise GraphError(f"cannot interpret {source!r} as an operand")


@dataclass(frozen=True)
class Operation:
    """A single arithmetic operation in a dataflow graph."""

    name: str
    op_type: OpType
    operands: tuple[Operand, ...]

    @property
    def resource_class(self) -> ResourceClass:
        """The resource class this operation competes for."""
        return self.op_type.resource_class

    def data_predecessors(self) -> tuple[str, ...]:
        """Names of operations whose results feed this operation.

        Duplicates are preserved (an operation may use the same producer on
        both ports, e.g. squaring); use ``set(...)`` for the dependency
        relation.
        """
        return tuple(o.op for o in self.operands if isinstance(o, OpRef))

    def __str__(self) -> str:
        args = ", ".join(str(o) for o in self.operands)
        return f"{self.name} = {self.op_type.symbol}({args})"


class DataflowGraph:
    """A directed acyclic graph of arithmetic operations.

    Operations are stored in insertion order, which is also a valid
    topological order (an operation may only reference operations added
    before it).  This invariant makes many downstream algorithms simple and
    deterministic.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._inputs: list[str] = []
        self._ops: dict[str, Operation] = {}
        self._outputs: dict[str, str] = {}
        self._successors: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> InputRef:
        """Declare a primary input and return a reference to it."""
        if name in self._inputs:
            raise GraphError(f"duplicate primary input {name!r}")
        if name in self._ops:
            raise GraphError(f"input {name!r} collides with an operation name")
        self._inputs.append(name)
        return InputRef(name)

    def add_op(
        self,
        name: str,
        op_type: OpType,
        *sources: "Operand | str | int",
    ) -> OpRef:
        """Add an operation fed by ``sources`` and return a reference to it.

        ``sources`` may mix :class:`Operand` objects, names (resolved to an
        existing operation, else to a declared primary input) and integer
        constants.
        """
        if name in self._ops:
            raise GraphError(f"duplicate operation name {name!r}")
        if name in self._inputs:
            raise GraphError(f"operation {name!r} collides with an input name")
        operands = tuple(self._resolve(as_operand(s)) for s in sources)
        if len(operands) != op_type.arity:
            raise GraphError(
                f"operation {name!r}: {op_type.name} expects {op_type.arity} "
                f"operands, got {len(operands)}"
            )
        op = Operation(name=name, op_type=op_type, operands=operands)
        self._ops[name] = op
        self._successors[name] = []
        for pred in set(op.data_predecessors()):
            self._successors[pred].append(name)
        return OpRef(name)

    def _resolve(self, operand: Operand) -> Operand:
        """Resolve a string-derived :class:`OpRef` against inputs/ops."""
        if isinstance(operand, OpRef):
            if operand.op in self._ops:
                return operand
            if operand.op in self._inputs:
                return InputRef(operand.op)
            raise GraphError(
                f"operand {operand.op!r} is neither an existing operation "
                f"nor a declared primary input"
            )
        if isinstance(operand, InputRef) and operand.name not in self._inputs:
            raise GraphError(f"unknown primary input {operand.name!r}")
        return operand

    def set_output(self, output_name: str, op: "OpRef | str") -> None:
        """Declare the result of ``op`` as primary output ``output_name``."""
        op_name = op.op if isinstance(op, OpRef) else op
        if op_name not in self._ops:
            raise GraphError(f"output source {op_name!r} is not an operation")
        if output_name in self._outputs:
            raise GraphError(f"duplicate primary output {output_name!r}")
        self._outputs[output_name] = op_name

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary input names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Mapping[str, str]:
        """Mapping from primary output name to producing operation name."""
        return dict(self._outputs)

    def operations(self) -> tuple[Operation, ...]:
        """All operations in insertion (= topological) order."""
        return tuple(self._ops.values())

    def op_names(self) -> tuple[str, ...]:
        """All operation names in insertion (= topological) order."""
        return tuple(self._ops)

    def op(self, name: str) -> Operation:
        """Look up an operation by name."""
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"no operation named {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def predecessors(self, name: str) -> tuple[str, ...]:
        """Distinct direct data predecessors of an operation, stable order."""
        seen: dict[str, None] = {}
        for pred in self.op(name).data_predecessors():
            seen.setdefault(pred, None)
        return tuple(seen)

    def successors(self, name: str) -> tuple[str, ...]:
        """Distinct direct data successors of an operation, stable order."""
        self.op(name)
        return tuple(self._successors[name])

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All distinct data-dependency edges ``(producer, consumer)``."""
        result = []
        for op in self:
            for pred in self.predecessors(op.name):
                result.append((pred, op.name))
        return tuple(result)

    def source_ops(self) -> tuple[str, ...]:
        """Operations with no operation predecessors (fed by inputs only)."""
        return tuple(o.name for o in self if not self.predecessors(o.name))

    def sink_ops(self) -> tuple[str, ...]:
        """Operations whose result feeds no other operation."""
        return tuple(o.name for o in self if not self._successors[o.name])

    def ops_of_class(self, resource_class: ResourceClass) -> tuple[str, ...]:
        """Operation names of one resource class, topological order."""
        return tuple(
            o.name for o in self if o.resource_class is resource_class
        )

    def resource_classes(self) -> tuple[ResourceClass, ...]:
        """Resource classes present in the graph, stable order."""
        seen: dict[ResourceClass, None] = {}
        for op in self:
            seen.setdefault(op.resource_class, None)
        return tuple(seen)

    def topological_order(self) -> tuple[str, ...]:
        """A topological order of the operations (the insertion order)."""
        return self.op_names()

    # ------------------------------------------------------------------
    # reference semantics
    # ------------------------------------------------------------------
    def evaluate(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Evaluate the graph on concrete input values.

        Returns the value of *every* operation (keyed by operation name)
        plus every primary output (keyed by output name).  This is the
        golden reference the cycle-accurate datapath simulation is checked
        against.
        """
        missing = [i for i in self._inputs if i not in inputs]
        if missing:
            raise GraphError(f"missing values for primary inputs: {missing}")
        values: dict[str, int] = {}
        for op in self:
            args = [self._operand_value(o, inputs, values) for o in op.operands]
            values[op.name] = op.op_type.evaluate(*args)
        for out_name, op_name in self._outputs.items():
            values[out_name] = values[op_name]
        return values

    @staticmethod
    def _operand_value(
        operand: Operand, inputs: Mapping[str, int], values: Mapping[str, int]
    ) -> int:
        if isinstance(operand, ConstRef):
            return operand.value
        if isinstance(operand, InputRef):
            return inputs[operand.name]
        return values[operand.op]

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self, name: "str | None" = None) -> "DataflowGraph":
        """Deep-enough copy (operations are immutable)."""
        clone = DataflowGraph(name or self.name)
        clone._inputs = list(self._inputs)
        clone._ops = dict(self._ops)
        clone._outputs = dict(self._outputs)
        clone._successors = {k: list(v) for k, v in self._successors.items()}
        return clone

    def summary(self) -> str:
        """Human-readable one-line description of the graph."""
        by_class: dict[ResourceClass, int] = {}
        for op in self:
            by_class[op.resource_class] = by_class.get(op.resource_class, 0) + 1
        mix = ", ".join(f"{v}x{k.value}" for k, v in by_class.items())
        return (
            f"DFG {self.name!r}: {len(self)} ops ({mix}), "
            f"{len(self._inputs)} inputs, {len(self._outputs)} outputs"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DataflowGraph {self.name!r} ops={len(self)}>"


def transitive_dependency(dfg: DataflowGraph) -> dict[str, frozenset[str]]:
    """For every op, the set of ops it (transitively) depends on.

    Computed in one topological pass; used by the order-based scheduler to
    decide which operations may execute concurrently (§3's dependency
    graph).
    """
    deps: dict[str, frozenset[str]] = {}
    for op in dfg:
        acc: set[str] = set()
        for pred in dfg.predecessors(op.name):
            acc.add(pred)
            acc |= deps[pred]
        deps[op.name] = frozenset(acc)
    return deps
