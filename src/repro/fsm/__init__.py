"""Controller FSMs: Algorithm 1, centralized TAUBM machines, analysis."""

from .algorithm1 import derive_all_unit_controllers, derive_unit_controller
from .area import (
    FSMAreaReport,
    LATCH_GLUE_LITERALS,
    fsm_area,
    fsm_logic_block,
    latch_area,
)
from .encode import (
    StateEncoding,
    binary_encoding,
    encode,
    gray_encoding,
    one_hot_encoding,
)
from .model import FSM, Transition, all_cube, make_transition, not_all_cubes
from .op_controller import (
    derive_all_operation_controllers,
    derive_operation_controller,
)
from .optimize import (
    prune_outputs,
    remove_unreachable_states,
)
from .product import build_cent_fsm, build_product_fsm
from .signals import (
    is_op_completion,
    is_unit_completion,
    op_completion,
    op_of_completion,
    operand_fetch,
    register_enable,
    state_exec,
    state_extend,
    state_ready,
    unit_completion,
    unit_of_completion,
)
from .taubm import derive_cent_sync_fsm
from .verilog import fsm_to_verilog, sanitize_identifier, start_strobe

__all__ = [
    "FSM",
    "FSMAreaReport",
    "LATCH_GLUE_LITERALS",
    "StateEncoding",
    "Transition",
    "all_cube",
    "binary_encoding",
    "build_cent_fsm",
    "build_product_fsm",
    "derive_all_operation_controllers",
    "derive_all_unit_controllers",
    "derive_cent_sync_fsm",
    "derive_operation_controller",
    "derive_unit_controller",
    "encode",
    "fsm_area",
    "fsm_logic_block",
    "fsm_to_verilog",
    "gray_encoding",
    "is_op_completion",
    "is_unit_completion",
    "latch_area",
    "make_transition",
    "not_all_cubes",
    "one_hot_encoding",
    "op_completion",
    "op_of_completion",
    "operand_fetch",
    "prune_outputs",
    "register_enable",
    "remove_unreachable_states",
    "sanitize_identifier",
    "start_strobe",
    "state_exec",
    "state_extend",
    "state_ready",
    "unit_completion",
    "unit_of_completion",
]
