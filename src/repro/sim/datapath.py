"""Value-computing datapath for controller verification.

The controllers only decide *when* operations run; this datapath computes
*what* they produce, so a simulation can assert that a controller scheme is
functionally correct (same results as a plain topological evaluation of the
DFG) and can feed concrete operand values to operand-dependent completion
models (:class:`~repro.resources.completion.OperandCompletion`).

Primary inputs are streams (one value per iteration, last value repeated),
so overlapped-iteration simulations stay well-defined.  Iteration ``k`` of
an operation reads iteration ``k`` of its producers; the token semantics of
the control units guarantees the producer value exists when the consumer
starts — a missing value therefore indicates a *control* bug and raises
immediately.

Note (idealization): under overlapped iterations a real datapath would need
double-buffered registers to keep iteration ``k`` readable while ``k+1`` is
produced; we model the buffered behaviour directly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ..core.dfg import ConstRef, DataflowGraph, InputRef, OpRef
from ..errors import ProtocolError, SimulationError, VerificationError


class Datapath:
    """Executes operation instances and stores per-iteration results."""

    def __init__(
        self,
        dfg: DataflowGraph,
        inputs: "Mapping[str, int | Sequence[int]]",
    ) -> None:
        self._dfg = dfg
        self._streams: dict[str, tuple[int, ...]] = {}
        for name in dfg.inputs:
            if name not in inputs:
                raise SimulationError(f"no value for primary input {name!r}")
            value = inputs[name]
            if isinstance(value, int):
                self._streams[name] = (value,)
            else:
                stream = tuple(int(v) for v in value)
                if not stream:
                    raise SimulationError(f"empty stream for input {name!r}")
                self._streams[name] = stream
        self._results: dict[str, list[int]] = {op.name: [] for op in dfg}
        self._exec_count: dict[str, int] = {op.name: 0 for op in dfg}

    # -- execution ---------------------------------------------------------

    def operand_values(self, op_name: str) -> tuple[int, ...]:
        """Concrete operand values for the op's *next* execution."""
        iteration = self._exec_count[op_name]
        op = self._dfg.op(op_name)
        values = []
        for operand in op.operands:
            if isinstance(operand, ConstRef):
                values.append(operand.value)
            elif isinstance(operand, InputRef):
                stream = self._streams[operand.name]
                values.append(stream[min(iteration, len(stream) - 1)])
            else:
                assert isinstance(operand, OpRef)
                produced = self._results[operand.op]
                if iteration >= len(produced):
                    raise ProtocolError(
                        f"control bug: {op_name!r} iteration {iteration} "
                        f"started before producer {operand.op!r} finished "
                        f"iteration {iteration}",
                        kind="premature-start",
                        op=op_name,
                    )
                values.append(produced[iteration])
        return tuple(values)

    def start(self, op_name: str) -> tuple[int, ...]:
        """Begin the op's next execution; returns the fetched operands.

        The result becomes visible to consumers immediately (it is latched
        by ``RE`` at completion; consumers can only start strictly after
        that, so computing it eagerly is equivalent).
        """
        operands = self.operand_values(op_name)
        op = self._dfg.op(op_name)
        self._results[op_name].append(op.op_type.evaluate(*operands))
        self._exec_count[op_name] += 1
        return operands

    # -- inspection ----------------------------------------------------------
    def result(self, op_name: str, iteration: int = 0) -> int:
        """The op's result for one iteration."""
        produced = self._results[op_name]
        if iteration >= len(produced):
            raise SimulationError(
                f"{op_name!r} has not executed iteration {iteration}"
            )
        return produced[iteration]

    def executions(self, op_name: str) -> int:
        """How many times an op has started."""
        return self._exec_count[op_name]

    def iteration_inputs(self, iteration: int) -> dict[str, int]:
        """The primary-input values iteration ``k`` consumed."""
        return {
            name: stream[min(iteration, len(stream) - 1)]
            for name, stream in self._streams.items()
        }

    def verify_iteration(self, iteration: int = 0) -> None:
        """Compare one iteration's results against reference evaluation."""
        reference = self._dfg.evaluate(self.iteration_inputs(iteration))
        for op in self._dfg:
            actual = self.result(op.name, iteration)
            if actual != reference[op.name]:
                raise VerificationError(
                    f"datapath mismatch at {op.name!r} iteration "
                    f"{iteration}: controller produced {actual}, reference "
                    f"says {reference[op.name]}",
                    op=op.name,
                    iteration=iteration,
                    actual=actual,
                    expected=reference[op.name],
                )

    def output_values(self, iteration: int = 0) -> dict[str, int]:
        """Primary-output values of one iteration."""
        return {
            out: self.result(op_name, iteration)
            for out, op_name in self._dfg.outputs.items()
        }
