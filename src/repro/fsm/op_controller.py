"""Per-operation controllers (the [3]-style baseline of the paper's intro).

De Micheli's alternative granularity: one small independent controller per
*operation* rather than per arithmetic unit.  Concurrency is fully
preserved (like the distributed per-unit scheme), but the controller count
— and with it the latch and wiring overhead — grows with the number of
operations instead of the number of units, the "rapid area increase"
problem the paper cites.  Implemented as an extension so the area
comparison can be reproduced quantitatively.

Unit sharing is serialized by tokens along the binding chain: each
operation waits for its chain predecessor's completion signal, and the
first operation of a chain waits (from the second iteration on) for the
chain's last operation — the wrap-around interlock that keeps one-op-at-a-
time occupancy of the shared unit.
"""

from __future__ import annotations

from ..binding.binder import BoundDataflowGraph
from ..errors import FSMError
from .model import FSM, Transition, all_cube, make_transition, not_all_cubes
from .signals import (
    op_completion,
    operand_fetch,
    register_enable,
    unit_completion,
)


def _exec_state(op: str) -> str:
    return f"E_{op}"


def _extend_state(op: str) -> str:
    return f"EX_{op}"


def _ready_state(op: str) -> str:
    return f"W_{op}"


def _first_ready_state(op: str) -> str:
    return f"W0_{op}"


def derive_operation_controller(
    bound: BoundDataflowGraph, op_name: str
) -> FSM:
    """Derive the independent controller FSM of one operation."""
    if op_name not in bound.dfg:
        raise FSMError(f"unknown operation {op_name!r}")
    unit = bound.unit_of(op_name)
    telescopic = unit.is_telescopic
    chain = bound.order.chain_of(op_name)
    index = chain.index(op_name)

    data_preds = bound.dfg.predecessors(op_name)
    if len(chain) > 1:
        unit_pred = chain[index - 1] if index > 0 else chain[-1]
    else:
        unit_pred = None
    is_wrap_interlock = unit_pred is not None and index == 0

    steady_preds = list(data_preds)
    if unit_pred is not None and unit_pred not in steady_preds:
        steady_preds.append(unit_pred)
    steady = tuple(op_completion(p) for p in steady_preds)
    first = (
        tuple(op_completion(p) for p in data_preds)
        if is_wrap_interlock
        else steady
    )

    states: list[str] = []
    transitions: list[Transition] = []
    inputs: list[str] = []
    if telescopic:
        inputs.append(unit_completion(unit.name))
    inputs.extend(s for s in steady if s not in inputs)
    outputs = (
        operand_fetch(op_name),
        register_enable(op_name),
        op_completion(op_name),
    )

    if first and first != steady:
        states.append(_first_ready_state(op_name))
    if steady:
        states.append(_ready_state(op_name))
    states.append(_exec_state(op_name))
    if telescopic:
        states.append(_extend_state(op_name))

    after_exec = _ready_state(op_name) if steady else _exec_state(op_name)

    def completing(source: str, base: "dict[str, bool]") -> None:
        starts = (op_name,) if after_exec == _exec_state(op_name) else ()
        transitions.append(
            make_transition(
                source,
                after_exec,
                dict(base),
                outputs,
                starts=starts,
                completes=(op_name,),
            )
        )

    c_t = unit_completion(unit.name)
    if telescopic:
        transitions.append(
            make_transition(
                _exec_state(op_name),
                _extend_state(op_name),
                {c_t: False},
                (operand_fetch(op_name),),
            )
        )
        completing(_exec_state(op_name), {c_t: True})
        completing(_extend_state(op_name), {})
    else:
        completing(_exec_state(op_name), {})

    if steady:
        transitions.append(
            make_transition(
                _ready_state(op_name),
                _exec_state(op_name),
                all_cube(steady),
                (),
                starts=(op_name,),
                queries=op_name,
            )
        )
        for cube in not_all_cubes(steady):
            transitions.append(
                make_transition(
                    _ready_state(op_name),
                    _ready_state(op_name),
                    cube,
                    (),
                    queries=op_name,
                )
            )
    if first and first != steady:
        transitions.append(
            make_transition(
                _first_ready_state(op_name),
                _exec_state(op_name),
                all_cube(first),
                (),
                starts=(op_name,),
                queries=op_name,
            )
        )
        for cube in not_all_cubes(first):
            transitions.append(
                make_transition(
                    _first_ready_state(op_name),
                    _first_ready_state(op_name),
                    cube,
                    (),
                    queries=op_name,
                )
            )

    if not first:
        initial = _exec_state(op_name)
        initial_starts = frozenset({op_name})
    elif first != steady:
        initial = _first_ready_state(op_name)
        initial_starts = frozenset()
    else:
        initial = _ready_state(op_name)
        initial_starts = frozenset()

    fsm = FSM(
        name=f"OP-FSM-{op_name}",
        states=tuple(states),
        initial=initial,
        inputs=tuple(inputs),
        outputs=outputs,
        transitions=tuple(transitions),
        initial_starts=initial_starts,
    )
    fsm.validate()
    return fsm


def derive_all_operation_controllers(
    bound: BoundDataflowGraph,
) -> dict[str, FSM]:
    """One controller per operation, keyed by operation name."""
    return {
        op.name: derive_operation_controller(bound, op.name)
        for op in bound.dfg
    }
