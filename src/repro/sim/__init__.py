"""Cycle-accurate simulation of control units and datapaths."""

from .controllers import (
    ControllerSystem,
    SystemConfig,
    SystemStep,
    single_fsm_system,
    system_from_bound,
)
from .batch import (
    BatchSimulator,
    batch_monte_carlo_latency,
    batch_supported,
    numpy_available,
)
from .datapath import Datapath
from .runner import (
    LatencyStatistics,
    monte_carlo_latency,
    pipelined_throughput,
    simulate_assignment,
)
from .simulator import SimulationResult, simulate
from .trace import CycleRecord, SimulationTrace
from .stimulus import (
    ValueDistribution,
    input_streams,
    small_values,
    uniform_values,
)
from .vcd import trace_to_vcd

__all__ = [
    "BatchSimulator",
    "ControllerSystem",
    "CycleRecord",
    "Datapath",
    "LatencyStatistics",
    "SimulationResult",
    "SimulationTrace",
    "SystemConfig",
    "SystemStep",
    "ValueDistribution",
    "batch_monte_carlo_latency",
    "batch_supported",
    "input_streams",
    "monte_carlo_latency",
    "numpy_available",
    "pipelined_throughput",
    "simulate",
    "simulate_assignment",
    "small_values",
    "single_fsm_system",
    "system_from_bound",
    "trace_to_vcd",
    "uniform_values",
]
