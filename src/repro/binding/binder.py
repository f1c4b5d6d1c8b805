"""Operation → arithmetic-unit binding.

Takes the chains of an order-based schedule and assigns each chain to a
concrete unit instance of the allocation, producing the
:class:`BoundDataflowGraph` every controller generator consumes.  The i-th
chain of a class lands on the i-th allocated unit of that class, which is
exactly the paper's Fig. 3(c) notation: ``(O0, O1) -> TAU multiplier-1``,
``(O6, O4, O8) -> TAU multiplier-2``, ...
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Mapping

from ..core.dfg import DataflowGraph
from ..errors import BindingError
from ..resources.allocation import ResourceAllocation
from ..resources.units import ArithmeticUnit
from ..scheduling.schedule import OrderSchedule


@dataclass(frozen=True)
class BoundDataflowGraph:
    """A DFG with a complete order-based schedule and unit binding.

    The single source of truth downstream: controller derivation, the
    simulator and the analytic latency model all read the execution order
    (``ops_on_unit``), the unit kinds and the cross-unit predecessor
    relation from here.
    """

    dfg: DataflowGraph
    allocation: ResourceAllocation
    order: OrderSchedule
    binding: Mapping[str, str]

    def __post_init__(self) -> None:
        for op in self.dfg:
            unit_name = self.binding.get(op.name)
            if unit_name is None:
                raise BindingError(f"operation {op.name!r} is unbound")
            unit = self.allocation.unit(unit_name)
            if unit.resource_class is not op.resource_class:
                raise BindingError(
                    f"operation {op.name!r} ({op.resource_class.value}) "
                    f"bound to {unit_name!r} ({unit.resource_class.value})"
                )

    # -- structure -------------------------------------------------------
    def unit_of(self, op_name: str) -> ArithmeticUnit:
        """The unit instance an operation executes on."""
        return self.allocation.unit(self.binding[op_name])

    def ops_on_unit(self, unit_name: str) -> tuple[str, ...]:
        """Execution order of the operations bound to a unit."""
        self.allocation.unit(unit_name)  # existence check
        rc = self.allocation.unit(unit_name).resource_class
        units = [u.name for u in self.allocation.units_of_class(rc)]
        index = units.index(unit_name)
        chains = self.order.chains.get(rc, ())
        if index >= len(chains):
            return ()
        return chains[index]

    def used_units(self) -> tuple[ArithmeticUnit, ...]:
        """Units with at least one bound operation, allocation order."""
        return tuple(
            u for u in self.allocation if self.ops_on_unit(u.name)
        )

    def is_telescopic_op(self, op_name: str) -> bool:
        """Whether an operation executes on a telescopic unit."""
        return self.unit_of(op_name).is_telescopic

    def telescopic_ops(self) -> tuple[str, ...]:
        """All operations bound to telescopic units, topological order."""
        return self._telescopic_ops

    @cached_property
    def _telescopic_ops(self) -> tuple[str, ...]:
        # computed once per bound graph: every exact query asks for it
        return tuple(
            op.name for op in self.dfg if self.is_telescopic_op(op.name)
        )

    # -- cross-unit dependency relation (paper §4.2) ----------------------
    def cross_unit_predecessors(self, op_name: str) -> tuple[str, ...]:
        """Direct predecessors of an op that run on *different* units.

        The paper restricts the direct predecessor/successor relation to
        operations on different units, because a unit controller enforces
        the order between its own operations automatically.
        """
        my_unit = self.binding[op_name]
        return tuple(
            p
            for p in self.dfg.predecessors(op_name)
            if self.binding[p] != my_unit
        )

    def cross_unit_successors(self, op_name: str) -> tuple[str, ...]:
        """Direct successors of an op that run on *different* units."""
        my_unit = self.binding[op_name]
        return tuple(
            s
            for s in self.dfg.successors(op_name)
            if self.binding[s] != my_unit
        )

    # -- timing ----------------------------------------------------------
    @cached_property
    def duration_table(self) -> Mapping[str, tuple[int, ...]]:
        """Cycles per telescope level of every op: ``[op][level]``.

        Computed once per bound graph; the simulator reads it on every
        operation start.
        """
        allocation = self.allocation
        return {
            op: tuple(
                allocation.cycles_for_level(unit, level)
                for level in range(allocation.unit(unit).num_levels)
            )
            for op, unit in self.binding.items()
        }

    def duration_cycles(self, op_name: str, fast: bool) -> int:
        """Cycles one execution of an op occupies its unit (binary view)."""
        return self.duration_table[op_name][0 if fast else -1]

    def duration_for_level(self, op_name: str, level: int) -> int:
        """Cycles of one execution completing at a telescope level."""
        return self.duration_table[op_name][level]

    def execution_edges(self) -> tuple[tuple[str, str], ...]:
        """Data edges plus schedule arcs (the execution graph)."""
        return self.order.execution_edges()

    def describe(self) -> str:
        """Multi-line report: unit -> chain listing plus schedule arcs."""
        lines = [f"binding of {self.dfg.name!r}:"]
        for unit in self.allocation:
            ops = self.ops_on_unit(unit.name)
            listing = ", ".join(ops) if ops else "(idle)"
            lines.append(f"  {unit.name}: ({listing})")
        arcs = ", ".join(f"{u}->{v}" for u, v in self.order.schedule_arcs)
        lines.append(f"  schedule arcs: {arcs if arcs else '(none)'}")
        return "\n".join(lines)


def bind(
    dfg: DataflowGraph,
    allocation: ResourceAllocation,
    order: OrderSchedule,
) -> BoundDataflowGraph:
    """Bind the chains of an order schedule onto the allocated units."""
    allocation.validate_for(dfg)
    binding: dict[str, str] = {}
    for rc in dfg.resource_classes():
        units = allocation.units_of_class(rc)
        chains = order.chains.get(rc, ())
        if len(chains) > len(units):
            raise BindingError(
                f"{len(chains)} chains of class {rc.value} but only "
                f"{len(units)} units allocated"
            )
        for chain, unit in zip(chains, units):
            for op_name in chain:
                binding[op_name] = unit.name
    return BoundDataflowGraph(
        dfg=dfg, allocation=allocation, order=order, binding=binding
    )
