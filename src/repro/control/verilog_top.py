"""Top-level Verilog for a distributed control unit.

Instantiates every per-unit controller module, wires completion pulses
between them, and materializes the completion-arrival latches with the
exact token semantics the simulator implements: a latch sets on a pulse,
clears when the consuming controller raises the start strobe of the
waiting operation, and a pulse that coincides with a consumption survives.

Every emitted identifier is claimed through a collision-aware allocator:
two source names that sanitize to the same Verilog id (``o1!`` vs.
``o1?`` both become ``o1_``) are suffix-deduplicated consistently across
module names, top-level nets and instance connections.  Clean names pass
through unchanged, so collision handling never perturbs existing output.
"""

from __future__ import annotations

from ..fsm.signals import is_op_completion, op_of_completion
from ..fsm.verilog import (
    claim_identifier,
    fsm_port_map,
    fsm_to_verilog,
    sanitize_identifier,
    start_strobe,
)
from .distributed import DistributedControlUnit


def controller_module_names(
    unit: DistributedControlUnit, top_name: str = "control_top"
) -> dict[str, str]:
    """Emitted module name per controller unit, collision-free.

    The top module's name is reserved first; controller modules claim
    theirs in declaration order.  :func:`distributed_to_verilog` and the
    RTL lint share this map so they can never disagree about which
    module a unit's controller became.
    """
    used: set[str] = {sanitize_identifier(top_name)}
    return {
        unit_name: claim_identifier(
            sanitize_identifier(fsm.name), used
        )
        for unit_name, fsm in unit.controllers.items()
    }


def distributed_to_verilog(
    unit: DistributedControlUnit, top_name: str = "control_top"
) -> str:
    """Controller modules plus the wiring top level, rendered once.

    The text is kept on ``unit`` per ``top_name``: every later call
    returns the same string, so the RTL lint and the caller that emits
    the design share one rendering.  A render that raises keeps nothing.
    """
    text = unit._verilog.get(top_name)
    if text is None:
        text = unit._verilog[top_name] = _render(unit, top_name)
    return text


def _render(unit: DistributedControlUnit, top_name: str) -> str:
    modules = controller_module_names(unit, top_name)
    port_maps = {
        unit_name: fsm_port_map(fsm, include_start_strobes=True)
        for unit_name, fsm in unit.controllers.items()
    }
    chunks: list[str] = []
    for unit_name, fsm in unit.controllers.items():
        chunks.append(
            fsm_to_verilog(
                fsm,
                module_name=modules[unit_name],
                include_start_strobes=True,
            )
        )

    bound = unit.bound
    used: set[str] = {"clk", "rst_n"}
    lines: list[str] = []
    lines.append(f"// Distributed control unit for {bound.dfg.name}")
    lines.append(f"module {sanitize_identifier(top_name)} (")
    lines.append("    input  wire clk,")
    lines.append("    input  wire rst_n,")
    port_lines: list[str] = []
    external_inputs: list[str] = []
    external_outputs: list[str] = []
    for fsm in unit.controllers.values():
        for signal in fsm.inputs:
            if not is_op_completion(signal) and signal not in external_inputs:
                external_inputs.append(signal)
        for signal in fsm.outputs:
            if (
                not is_op_completion(signal)
                and signal not in external_outputs
            ):
                external_outputs.append(signal)
    external_ids = {
        signal: claim_identifier(sanitize_identifier(signal), used)
        for signal in (*external_inputs, *external_outputs)
    }
    for signal in external_inputs:
        port_lines.append(f"    input  wire {external_ids[signal]},")
    for signal in external_outputs:
        port_lines.append(f"    output wire {external_ids[signal]},")
    if port_lines:
        port_lines[-1] = port_lines[-1].rstrip(",")
    lines.extend(port_lines)
    lines.append(");")
    lines.append("")

    # Internal completion pulse wires and arrival latches.
    live = unit.live_nets()
    pulse_ids: dict[str, str] = {}
    for net in live:
        pulse_ids[net.producer_op] = claim_identifier(
            f"pulse_{sanitize_identifier(net.producer_op)}", used
        )
        lines.append(f"  wire {pulse_ids[net.producer_op]};")
    strobe_ids: dict[str, str] = {}
    for unit_name in unit.controllers:
        for op in bound.ops_on_unit(unit_name):
            strobe_ids[op] = claim_identifier(
                f"st_{sanitize_identifier(op)}", used
            )
            lines.append(f"  wire {strobe_ids[op]};")
    lines.append("")
    eff_ids: dict[tuple[str, str], str] = {}
    for net in live:
        pulse = pulse_ids[net.producer_op]
        for consumer_unit in net.consumer_units:
            waiters = [
                op
                for op in bound.ops_on_unit(consumer_unit)
                if net.producer_op in bound.cross_unit_predecessors(op)
            ]
            consume = " | ".join(
                strobe_ids[w] for w in waiters
            ) or "1'b0"
            pair = (
                f"{sanitize_identifier(consumer_unit)}_"
                f"{sanitize_identifier(net.producer_op)}"
            )
            flag = claim_identifier(f"flag_{pair}", used)
            eff = claim_identifier(f"eff_{pair}", used)
            eff_ids[(consumer_unit, net.producer_op)] = eff
            lines.append(f"  reg {flag};")
            lines.append("  always @(posedge clk or negedge rst_n) begin")
            lines.append(f"    if (!rst_n) {flag} <= 1'b0;")
            lines.append(
                f"    else if ({consume}) {flag} <= {flag} & {pulse};"
            )
            lines.append(
                f"    else if ({pulse}) {flag} <= 1'b1;"
            )
            lines.append("  end")
            lines.append(
                f"  wire {eff}"
                f" = {flag} | {pulse};"
            )
            lines.append("")

    # Controller instances.
    for unit_name, fsm in unit.controllers.items():
        instance = claim_identifier(
            sanitize_identifier(f"u_{unit_name}"), used
        )
        ports = port_maps[unit_name]
        lines.append(
            f"  {modules[unit_name]} {instance} ("
        )
        conns = ["    .clk(clk)", "    .rst_n(rst_n)"]
        for signal in fsm.inputs:
            port = ports[signal]
            if is_op_completion(signal):
                producer = op_of_completion(signal)
                conns.append(
                    f"    .{port}({eff_ids[(unit_name, producer)]})"
                )
            else:
                conns.append(f"    .{port}({external_ids[signal]})")
        for signal in fsm.outputs:
            port = ports[signal]
            if is_op_completion(signal):
                producer = op_of_completion(signal)
                conns.append(f"    .{port}({pulse_ids[producer]})")
            else:
                conns.append(f"    .{port}({external_ids[signal]})")
        for op in bound.ops_on_unit(unit_name):
            strobe = ports[start_strobe(op)]
            conns.append(f"    .{strobe}({strobe_ids[op]})")
        lines.append(",\n".join(conns))
        lines.append("  );")
        lines.append("")
    lines.append("endmodule")
    chunks.append("\n".join(lines) + "\n")
    return "\n\n".join(chunks)
