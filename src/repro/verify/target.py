"""The artifact bundle a lint run inspects.

A :class:`LintTarget` gathers the synthesis artifacts of one design —
exactly the objects the pipeline's artifact store holds after the
``distributed`` pass — plus lazily generated RTL.  Builders exist for
every entry point: a :class:`~repro.api.SynthesisResult`, a pipeline
:class:`~repro.pipeline.artifacts.ArtifactStore`, or raw artifacts (the
fault self-tests construct deliberately corrupted bundles).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Mapping
from typing import TYPE_CHECKING

from ..binding.binder import BoundDataflowGraph
from ..control.distributed import DistributedControlUnit
from ..core.dfg import DataflowGraph
from ..fsm.model import FSM
from ..resources.allocation import ResourceAllocation
from ..scheduling.schedule import (
    OrderSchedule,
    TaubmSchedule,
    TimeStepSchedule,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..api import SynthesisResult
    from ..pipeline.artifacts import ArtifactStore


@dataclass(frozen=True)
class LintTarget:
    """Every artifact of one design the static rules inspect."""

    name: str
    dfg: DataflowGraph
    allocation: ResourceAllocation
    schedule: TimeStepSchedule
    order: OrderSchedule
    bound: BoundDataflowGraph
    taubm: TaubmSchedule
    distributed: DistributedControlUnit

    @classmethod
    def from_result(
        cls, result: "SynthesisResult", name: "str | None" = None
    ) -> "LintTarget":
        """Bundle a finished :func:`repro.synthesize` result."""
        return cls(
            name=name or result.dfg.name,
            dfg=result.dfg,
            allocation=result.allocation,
            schedule=result.schedule,
            order=result.order,
            bound=result.bound,
            taubm=result.taubm,
            distributed=result.distributed,
        )

    @classmethod
    def from_store(
        cls, store: "ArtifactStore", name: "str | None" = None
    ) -> "LintTarget":
        """Bundle a pipeline artifact store (post-``distributed``)."""
        dfg = store.get("dfg")
        return cls(
            name=name or dfg.name,
            dfg=dfg,
            allocation=store.get("allocation"),
            schedule=store.get("schedule"),
            order=store.get("order"),
            bound=store.get("bound"),
            taubm=store.get("taubm"),
            distributed=store.get("distributed"),
        )

    @property
    def controllers(self) -> Mapping[str, FSM]:
        """The per-unit controller FSMs of the distributed unit."""
        return self.distributed.controllers

    def rtl(self) -> str:
        """The distributed unit's Verilog, rendered once per unit."""
        from ..control.verilog_top import distributed_to_verilog

        return distributed_to_verilog(self.distributed)

    def with_controllers(
        self, controllers: Mapping[str, FSM]
    ) -> "LintTarget":
        """The same design with substituted controller FSMs.

        Used by the optimize-then-lint commutation tests: swapping in
        optimized controllers must not change any verdict.
        """
        return replace(
            self,
            distributed=replace(
                self.distributed, controllers=dict(controllers)
            ),
        )
