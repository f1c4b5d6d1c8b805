"""Scheduling: time-step, TAUBM and order-based schedules."""

from .asap_alap import alap_schedule, asap_schedule
from .exact import exact_schedule
from .force_directed import force_directed_schedule
from .list_scheduler import list_schedule
from .order_based import (
    concurrency_width,
    minimum_units_required,
    order_based_schedule,
)
from .schedule import (
    OrderSchedule,
    TaubmSchedule,
    TaubmStep,
    TimeStepSchedule,
)
from .taubm import derive_taubm_schedule, telescopic_classes

__all__ = [
    "OrderSchedule",
    "TaubmSchedule",
    "TaubmStep",
    "TimeStepSchedule",
    "alap_schedule",
    "asap_schedule",
    "concurrency_width",
    "derive_taubm_schedule",
    "exact_schedule",
    "force_directed_schedule",
    "list_schedule",
    "minimum_units_required",
    "order_based_schedule",
    "telescopic_classes",
]
