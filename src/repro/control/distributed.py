"""The distributed synchronous control unit (paper §4.1 and Fig. 7).

Integration of the per-unit Algorithm-1 controllers into one global
control unit:

1. derive one FSM per used arithmetic unit,
2. build the completion-signal netlist between them,
3. prune completion outputs nobody consumes (the paper's example: removing
   ``C_CO(0)``),
4. account for the completion-arrival latches the coordination mechanism
   needs (one per (consumer controller, producer op) pair).

The result is both an analyzable artifact (states/FFs/area per component,
Table 1's DIST rows) and an executable one (:meth:`DistributedControlUnit.
system` plugs straight into the cycle-accurate simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from ..binding.binder import BoundDataflowGraph
from ..fsm.algorithm1 import derive_all_unit_controllers
from ..fsm.area import FSMAreaReport, fsm_area, latch_area
from ..fsm.model import FSM
from ..fsm.optimize import prune_outputs
from ..fsm.signals import is_op_completion, op_completion
from ..sim.controllers import ControllerSystem, system_from_bound
from .netlist import CompletionNet, completion_netlist


@dataclass(frozen=True)
class DistributedControlUnit:
    """An integrated set of per-unit controllers with pruned wiring."""

    bound: BoundDataflowGraph
    controllers: Mapping[str, FSM]
    nets: tuple[CompletionNet, ...]
    pruned_signals: tuple[str, ...]
    # Rendered Verilog per top-module name, filled by
    # :func:`~repro.control.verilog_top.distributed_to_verilog`; a
    # ``dataclasses.replace`` copy starts empty and renders afresh.
    _verilog: dict[str, str] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    # -- structure ---------------------------------------------------------
    @property
    def unit_names(self) -> tuple[str, ...]:
        return tuple(self.controllers)

    def controller(self, unit_name: str) -> FSM:
        return self.controllers[unit_name]

    def live_nets(self) -> tuple[CompletionNet, ...]:
        """Completion wires with at least one consumer."""
        return tuple(n for n in self.nets if n.fanout > 0)

    @property
    def num_latches(self) -> int:
        """Completion-arrival latches across all controllers."""
        return sum(
            sum(1 for s in fsm.inputs if is_op_completion(s))
            for fsm in self.controllers.values()
        )

    def system(self) -> ControllerSystem:
        """The executable controller system for the simulator."""
        return system_from_bound(self.bound, dict(self.controllers))

    # -- area ----------------------------------------------------------------
    def component_areas(
        self, encoding_style: str = "binary"
    ) -> tuple[FSMAreaReport, ...]:
        """Per-controller Table-1 rows (D-FSM-M1, D-FSM-M2, ...)."""
        return tuple(
            fsm_area(fsm, encoding_style)
            for fsm in self.controllers.values()
        )

    def total_area(
        self, encoding_style: str = "binary", include_latches: bool = True
    ) -> FSMAreaReport:
        """The aggregated DIST-FSM Table-1 row.

        I/O counts the *external* interface: unit completion inputs plus
        OF/RE outputs (inter-controller completion wires are internal).
        """
        parts = self.component_areas(encoding_style)
        comb = sum(p.combinational_area for p in parts)
        seq = sum(p.sequential_area for p in parts)
        ffs = sum(p.num_flip_flops for p in parts)
        if include_latches:
            latch_comb, latch_seq = latch_area(self.num_latches)
            comb += latch_comb
            seq += latch_seq
            ffs += self.num_latches
        external_inputs = {
            s
            for fsm in self.controllers.values()
            for s in fsm.inputs
            if not is_op_completion(s)
        }
        external_outputs = {
            s
            for fsm in self.controllers.values()
            for s in fsm.outputs
            if not is_op_completion(s)
        }
        return FSMAreaReport(
            name="DIST-FSM",
            num_inputs=len(external_inputs),
            num_outputs=len(external_outputs),
            num_states=sum(p.num_states for p in parts),
            num_flip_flops=ffs,
            combinational_area=comb,
            sequential_area=seq,
            method=parts[0].method if parts else "exact",
        )

    # -- reporting ---------------------------------------------------------
    def describe(self) -> str:
        lines = [f"distributed control unit for {self.bound.dfg.name!r}:"]
        for fsm in self.controllers.values():
            lines.append(
                f"  {fsm.name}: {fsm.num_states} states, "
                f"{len(fsm.inputs)} in / {len(fsm.outputs)} out"
            )
        for net in self.live_nets():
            lines.append(f"  wire {net}")
        if self.pruned_signals:
            lines.append(
                f"  pruned (unconsumed): {', '.join(self.pruned_signals)}"
            )
        lines.append(f"  completion-arrival latches: {self.num_latches}")
        return "\n".join(lines)


def build_distributed_control_unit(
    bound: BoundDataflowGraph,
) -> DistributedControlUnit:
    """Derive, integrate and optimize the distributed control unit."""
    raw = derive_all_unit_controllers(bound)
    nets = completion_netlist(bound, raw)
    consumed = {
        op_completion(net.producer_op) for net in nets if net.fanout > 0
    }
    pruned: list[str] = []
    optimized: dict[str, FSM] = {}
    for unit_name, fsm in raw.items():
        keep = [
            s
            for s in fsm.outputs
            if not is_op_completion(s) or s in consumed
        ]
        dropped = [s for s in fsm.outputs if s not in keep]
        pruned.extend(dropped)
        optimized[unit_name] = (
            prune_outputs(fsm, keep) if dropped else fsm
        )
    return DistributedControlUnit(
        bound=bound,
        controllers=optimized,
        nets=nets,
        pruned_signals=tuple(pruned),
    )
