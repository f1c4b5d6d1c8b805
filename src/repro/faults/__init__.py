"""Fault injection and resilience measurement for control units.

Three layers (see ``docs/architecture.md`` §"Fault injection & runtime
monitors"):

1. :mod:`repro.faults.models` — deterministic, composable fault injectors
   wrapping a :class:`~repro.sim.controllers.ControllerSystem` or a
   :class:`~repro.resources.completion.CompletionModel`,
2. the runtime invariant monitors live in :mod:`repro.sim.simulator`
   (``simulate(handshake=True)`` turns on the strict handshake check)
   and raise the structured exceptions of :mod:`repro.errors`,
3. :mod:`repro.faults.campaign` — the seeded fault-campaign runner that
   classifies every faulty run as detected / tolerated / silent and
   compares DIST-FSM against CENT-SYNC-FSM vulnerability.
"""

from .campaign import (
    STYLES,
    FaultCampaignReport,
    FaultTrialRecord,
    TrialFault,
    run_campaign,
)
from .models import (
    DelayedCompletionFault,
    DroppedPulseFault,
    FaultInjector,
    FaultyControllerSystem,
    IntermittentCompletion,
    SpuriousPulseFault,
    StateFlipFault,
    StuckCompletionFault,
    inject,
)

__all__ = [
    "DelayedCompletionFault",
    "DroppedPulseFault",
    "FaultCampaignReport",
    "FaultInjector",
    "FaultTrialRecord",
    "FaultyControllerSystem",
    "IntermittentCompletion",
    "STYLES",
    "SpuriousPulseFault",
    "StateFlipFault",
    "StuckCompletionFault",
    "TrialFault",
    "inject",
    "run_campaign",
]
