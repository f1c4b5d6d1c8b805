"""Core dataflow-graph model and analyses."""

from .analysis import (
    GraphProfile,
    alap_start_times,
    asap_start_times,
    critical_path,
    finish_times,
    profile,
    schedule_length,
    uniform_durations,
)
from .builder import DFGBuilder
from .dfg import (
    ConstRef,
    DataflowGraph,
    InputRef,
    Operand,
    Operation,
    OpRef,
    transitive_dependency,
)
from .dot import dfg_to_dot
from .ops import (
    DEFAULT_TELESCOPIC_CLASSES,
    OpType,
    ResourceClass,
)
from .validate import validate_dfg, validate_extra_edges

__all__ = [
    "ConstRef",
    "DEFAULT_TELESCOPIC_CLASSES",
    "DFGBuilder",
    "DataflowGraph",
    "GraphProfile",
    "InputRef",
    "OpRef",
    "OpType",
    "Operand",
    "Operation",
    "ResourceClass",
    "alap_start_times",
    "asap_start_times",
    "critical_path",
    "dfg_to_dot",
    "finish_times",
    "profile",
    "schedule_length",
    "transitive_dependency",
    "uniform_durations",
    "validate_dfg",
    "validate_extra_edges",
]
