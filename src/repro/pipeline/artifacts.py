"""The typed artifact store the pass manager runs over.

Every pass reads and writes named artifacts; the store enforces that
each name carries exactly the declared type, so a miswired pass fails
loudly at the boundary instead of deep inside a downstream consumer.

The store also owns the artifacts' fingerprints: each is computed on
first request and kept until ``put`` replaces that artifact, so a run
digests every artifact once however many passes read it.  That memo
relies on one contract: a pass body never mutates the artifacts it
reads (:class:`~repro.core.dfg.DataflowGraph` is the only mutable
artifact type); it puts a new artifact instead.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from ..binding.binder import BoundDataflowGraph
from ..control.distributed import DistributedControlUnit
from ..core.dfg import DataflowGraph
from ..errors import PipelineError
from ..fsm.model import FSM
from ..perf.cache import artifact_fingerprint
from ..resources.allocation import ResourceAllocation
from ..scheduling.schedule import (
    OrderSchedule,
    TaubmSchedule,
    TimeStepSchedule,
)

#: Declared artifact names and the type each one must carry.
ARTIFACT_TYPES: Mapping[str, type] = {
    "dfg": DataflowGraph,
    "allocation": ResourceAllocation,
    "schedule": TimeStepSchedule,
    "order": OrderSchedule,
    "bound": BoundDataflowGraph,
    "taubm": TaubmSchedule,
    "distributed": DistributedControlUnit,
    "cent_sync_fsm": FSM,
    "cent_fsm": FSM,
}


class ArtifactStore:
    """Typed name → artifact mapping shared by the passes of one run."""

    def __init__(self, **artifacts: object) -> None:
        self._artifacts: dict[str, object] = {}
        self._fingerprints: dict[str, str] = {}
        for name, value in artifacts.items():
            self.put(name, value)

    def put(self, name: str, artifact: object) -> None:
        """Store an artifact, checking name and type."""
        expected = ARTIFACT_TYPES.get(name)
        if expected is None:
            known = ", ".join(sorted(ARTIFACT_TYPES))
            raise PipelineError(
                f"unknown artifact name {name!r}; declared: {known}"
            )
        if not isinstance(artifact, expected):
            raise PipelineError(
                f"artifact {name!r} must be {expected.__name__}, got "
                f"{type(artifact).__name__}"
            )
        self._artifacts[name] = artifact
        self._fingerprints.pop(name, None)

    def get(self, name: str) -> object:
        """Fetch an artifact; missing names raise a clear error."""
        try:
            return self._artifacts[name]
        except KeyError:
            raise PipelineError(
                f"artifact {name!r} has not been produced yet; run the "
                f"pass that provides it first"
            ) from None

    def fingerprint(self, name: str) -> str:
        """Stable digest of a stored artifact, memoized until ``put``.

        Equal to :func:`~repro.perf.cache.artifact_fingerprint` of
        ``get(name)`` as long as no pass mutates that artifact in
        place (see the module docstring).
        """
        fingerprint = self._fingerprints.get(name)
        if fingerprint is None:
            fingerprint = artifact_fingerprint(self.get(name))
            self._fingerprints[name] = fingerprint
        return fingerprint

    def __contains__(self, name: str) -> bool:
        return name in self._artifacts

    def __iter__(self) -> Iterator[str]:
        return iter(self._artifacts)

    def __len__(self) -> int:
        return len(self._artifacts)

    def names(self) -> tuple[str, ...]:
        """Stored artifact names in insertion order."""
        return tuple(self._artifacts)
