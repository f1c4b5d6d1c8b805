"""JSON serialization of graphs, FSMs, pipeline artifacts and designs.

FSMs and the pipeline artifacts also load back.  Lets synthesized
artifacts leave the Python process — for version control of golden
controllers, for diffing two synthesis runs, or for feeding external
tools.  Round-trips are exact: ``fsm_from_dict(fsm_to_dict(f))``
reproduces the machine bit-for-bit (tests enforce it).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any, TYPE_CHECKING

from .core.dfg import ConstRef, DataflowGraph, InputRef, OpRef, Operand
from .core.ops import ResourceClass
from .errors import ReproError
from .fsm.model import FSM, Transition

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from .binding.binder import BoundDataflowGraph
    from .control.distributed import DistributedControlUnit
    from .resources.allocation import ResourceAllocation
    from .scheduling.schedule import (
        OrderSchedule,
        TaubmSchedule,
        TimeStepSchedule,
    )

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Dataflow graphs
# ----------------------------------------------------------------------
def _operand_to_dict(operand: Operand) -> dict[str, Any]:
    if isinstance(operand, InputRef):
        return {"kind": "input", "name": operand.name}
    if isinstance(operand, ConstRef):
        return {"kind": "const", "value": operand.value}
    assert isinstance(operand, OpRef)
    return {"kind": "op", "name": operand.op}


def dfg_to_dict(dfg: DataflowGraph) -> dict[str, Any]:
    """Serialize a dataflow graph to plain JSON-compatible data."""
    return {
        "format": FORMAT_VERSION,
        "name": dfg.name,
        "inputs": list(dfg.inputs),
        "operations": [
            {
                "name": op.name,
                "type": op.op_type.name,
                "operands": [_operand_to_dict(o) for o in op.operands],
            }
            for op in dfg
        ],
        "outputs": dict(dfg.outputs),
    }


# ----------------------------------------------------------------------
# FSMs
# ----------------------------------------------------------------------
def fsm_to_dict(fsm: FSM) -> dict[str, Any]:
    """Serialize an FSM to plain JSON-compatible data."""
    return {
        "format": FORMAT_VERSION,
        "name": fsm.name,
        "states": list(fsm.states),
        "initial": fsm.initial,
        "inputs": list(fsm.inputs),
        "outputs": list(fsm.outputs),
        "initial_starts": sorted(fsm.initial_starts),
        "transitions": [
            {
                "source": t.source,
                "target": t.target,
                "guard": [[name, value] for name, value in t.guard],
                "outputs": sorted(t.outputs),
                "starts": sorted(t.starts),
                "completes": sorted(t.completes),
                "queries": t.queries,
            }
            for t in fsm.transitions
        ],
    }


def fsm_from_dict(data: Mapping[str, Any]) -> FSM:
    """Rebuild an FSM from :func:`fsm_to_dict` data (and validate it)."""
    if data.get("format") != FORMAT_VERSION:
        raise ReproError(
            f"unsupported FSM format {data.get('format')!r}"
        )
    transitions = tuple(
        Transition(
            source=t["source"],
            target=t["target"],
            guard=tuple((name, bool(value)) for name, value in t["guard"]),
            outputs=frozenset(t["outputs"]),
            starts=frozenset(t["starts"]),
            completes=frozenset(t["completes"]),
            queries=t.get("queries"),
        )
        for t in data["transitions"]
    )
    fsm = FSM(
        name=data["name"],
        states=tuple(data["states"]),
        initial=data["initial"],
        inputs=tuple(data["inputs"]),
        outputs=tuple(data["outputs"]),
        transitions=transitions,
        initial_starts=frozenset(data.get("initial_starts", ())),
    )
    fsm.validate()
    return fsm


# ----------------------------------------------------------------------
# Pipeline artifacts
#
# Every intermediate of the synthesis pipeline serializes to plain JSON
# data and round-trips exactly.  The ``*_from_dict`` functions take the
# upstream artifacts they reference (graph, allocation, order) as
# explicit context instead of embedding copies, which is what lets the
# per-pass artifact cache (:mod:`repro.pipeline`) rebuild any pass
# output from its payload plus the artifacts already in the store.
# ----------------------------------------------------------------------
def schedule_to_dict(schedule: "TimeStepSchedule") -> dict[str, Any]:
    """Serialize a time-step schedule (start times only)."""
    return {
        "format": FORMAT_VERSION,
        "start": {name: int(t) for name, t in schedule.start.items()},
    }


def schedule_from_dict(
    data: Mapping[str, Any], dfg: DataflowGraph
) -> "TimeStepSchedule":
    """Rebuild a time-step schedule over an existing graph."""
    from .scheduling.schedule import TimeStepSchedule

    _check_format(data, "schedule")
    return TimeStepSchedule(
        dfg=dfg,
        start={name: int(t) for name, t in data["start"].items()},
    )


def order_to_dict(order: "OrderSchedule") -> dict[str, Any]:
    """Serialize an order-based schedule (chains + schedule arcs)."""
    return {
        "format": FORMAT_VERSION,
        "chains": [
            [rc.value, [list(chain) for chain in chains]]
            for rc, chains in order.chains.items()
        ],
        "schedule_arcs": [list(arc) for arc in order.schedule_arcs],
    }


def order_from_dict(
    data: Mapping[str, Any], dfg: DataflowGraph
) -> "OrderSchedule":
    """Rebuild an order-based schedule over an existing graph."""
    from .scheduling.schedule import OrderSchedule

    _check_format(data, "order schedule")
    chains = {
        ResourceClass(rc_value): tuple(
            tuple(chain) for chain in rc_chains
        )
        for rc_value, rc_chains in data["chains"]
    }
    arcs = tuple((u, v) for u, v in data["schedule_arcs"])
    return OrderSchedule(dfg=dfg, chains=chains, schedule_arcs=arcs)


def bound_to_dict(bound: "BoundDataflowGraph") -> dict[str, Any]:
    """Serialize a bound graph (its order plus the unit binding)."""
    return {
        "format": FORMAT_VERSION,
        "order": order_to_dict(bound.order),
        "binding": dict(bound.binding),
    }


def bound_from_dict(
    data: Mapping[str, Any],
    dfg: DataflowGraph,
    allocation: "ResourceAllocation",
) -> "BoundDataflowGraph":
    """Rebuild a bound graph over an existing graph and allocation."""
    from .binding.binder import BoundDataflowGraph

    _check_format(data, "bound graph")
    return BoundDataflowGraph(
        dfg=dfg,
        allocation=allocation,
        order=order_from_dict(data["order"], dfg),
        binding={str(op): str(unit) for op, unit in data["binding"].items()},
    )


def taubm_to_dict(taubm: "TaubmSchedule") -> dict[str, Any]:
    """Serialize a TAUBM schedule (base start times + annotated steps)."""
    return {
        "format": FORMAT_VERSION,
        "base": schedule_to_dict(taubm.base),
        "steps": [
            {
                "index": step.index,
                "ops": list(step.ops),
                "tau_ops": list(step.tau_ops),
            }
            for step in taubm.steps
        ],
    }


def taubm_from_dict(
    data: Mapping[str, Any], dfg: DataflowGraph
) -> "TaubmSchedule":
    """Rebuild a TAUBM schedule over an existing graph."""
    from .scheduling.schedule import TaubmSchedule, TaubmStep

    _check_format(data, "TAUBM schedule")
    steps = tuple(
        TaubmStep(
            index=int(step["index"]),
            ops=tuple(step["ops"]),
            tau_ops=tuple(step["tau_ops"]),
        )
        for step in data["steps"]
    )
    return TaubmSchedule(
        base=schedule_from_dict(data["base"], dfg), steps=steps
    )


def distributed_to_dict(
    unit: "DistributedControlUnit",
) -> dict[str, Any]:
    """Serialize a distributed control unit (controllers, nets, pruning).

    Controller and net order is preserved as explicit lists so the
    rebuilt unit iterates — and therefore describes and fingerprints —
    identically to the original.
    """
    return {
        "format": FORMAT_VERSION,
        "controllers": [
            [name, fsm_to_dict(fsm)]
            for name, fsm in unit.controllers.items()
        ],
        "nets": [
            {
                "producer_op": net.producer_op,
                "producer_unit": net.producer_unit,
                "consumer_units": list(net.consumer_units),
            }
            for net in unit.nets
        ],
        "pruned_signals": list(unit.pruned_signals),
    }


def distributed_from_dict(
    data: Mapping[str, Any], bound: "BoundDataflowGraph"
) -> "DistributedControlUnit":
    """Rebuild a distributed control unit over an existing bound graph."""
    from .control.distributed import DistributedControlUnit
    from .control.netlist import CompletionNet

    _check_format(data, "distributed control unit")
    return DistributedControlUnit(
        bound=bound,
        controllers={
            name: fsm_from_dict(fsm_data)
            for name, fsm_data in data["controllers"]
        },
        nets=tuple(
            CompletionNet(
                producer_op=net["producer_op"],
                producer_unit=net["producer_unit"],
                consumer_units=tuple(net["consumer_units"]),
            )
            for net in data["nets"]
        ),
        pruned_signals=tuple(data["pruned_signals"]),
    )


def _check_format(data: Mapping[str, Any], what: str) -> None:
    if data.get("format") != FORMAT_VERSION:
        raise ReproError(
            f"unsupported {what} format {data.get('format')!r}"
        )


# ----------------------------------------------------------------------
# Whole designs
# ----------------------------------------------------------------------
def design_to_dict(result) -> dict[str, Any]:
    """Serialize a :class:`~repro.api.SynthesisResult`'s design record.

    Captures everything needed to audit or diff a synthesis run: graph,
    allocation, schedule, chains, schedule arcs, binding and the pruned
    per-unit controller FSMs.
    """
    allocation = result.allocation
    return {
        "format": FORMAT_VERSION,
        "dfg": dfg_to_dict(result.dfg),
        "allocation": [
            {
                "name": u.name,
                "class": u.resource_class.value,
                "telescopic": u.is_telescopic,
                "level_delays_ns": list(u.level_delays_ns),
            }
            for u in allocation
        ],
        "clock_ns": allocation.clock_period_ns(),
        "schedule": dict(result.schedule.start),
        "schedule_arcs": [list(arc) for arc in result.order.schedule_arcs],
        "chains": {
            rc.value: [list(chain) for chain in chains]
            for rc, chains in result.order.chains.items()
        },
        "binding": dict(result.bound.binding),
        "controllers": {
            unit: fsm_to_dict(fsm)
            for unit, fsm in result.distributed.controllers.items()
        },
        "pruned_signals": list(result.distributed.pruned_signals),
    }


def dumps(data: Mapping[str, Any], indent: int = 2) -> str:
    """JSON text for any of the dictionaries above."""
    return json.dumps(data, indent=indent, sort_keys=True)


def loads(text: str) -> dict[str, Any]:
    """Parse JSON text produced by :func:`dumps`."""
    return json.loads(text)
