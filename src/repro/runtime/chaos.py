"""Deterministic worker-failure injection for drills.

The fault injectors in :mod:`repro.faults` attack the *simulated
hardware*; this module attacks the *host runtime* — the worker
processes of a supervised pool.  A :class:`ChaosConfig` names global
work-item indices at which a worker should crash (``os._exit``),
raise, or hang, so tests and the CI chaos-smoke job can prove that a
campaign survives real process death with byte-identical output.

Injection happens inside the worker (the supervised chunk runner calls
:func:`chaos_apply` before each item), never in the supervising
process: a crash must kill a *worker*, not the run.  With
``once=True`` (the default) each chosen index fires a single time
across the whole run — claimed atomically via an ``O_EXCL`` marker
file in ``sentinel_dir``, which works across processes and pool
restarts — so the retried attempt succeeds and the run completes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..errors import SimulationError


class ChaosFailure(Exception):
    """The deliberate exception raised by ``fail_items`` injection.

    Not a :class:`~repro.errors.ReproError`: chaos failures model
    arbitrary third-party worker exceptions, so they must not be
    catchable as a library error.
    """


@dataclass(frozen=True)
class ChaosConfig:
    """Which work items a worker should crash, fail or hang on.

    Indices are *global* item positions in the supervised map's work
    list.  ``once=True`` requires ``sentinel_dir`` (a directory shared
    by all workers) so each injection fires exactly once; without it,
    the injection repeats on every attempt — useful for proving that
    retry budgets are enforced.
    """

    crash_items: tuple[int, ...] = ()
    fail_items: tuple[int, ...] = ()
    hang_items: tuple[int, ...] = ()
    hang_s: float = 5.0
    once: bool = True
    sentinel_dir: "str | None" = None

    def __post_init__(self) -> None:
        if self.once and self.any_items() and self.sentinel_dir is None:
            raise SimulationError(
                "ChaosConfig(once=True) needs sentinel_dir to track "
                "which injections already fired"
            )

    def any_items(self) -> bool:
        return bool(self.crash_items or self.fail_items or self.hang_items)

    def _claim(self, kind: str, index: int) -> bool:
        """Atomically claim one injection; False if it already fired."""
        if not self.once:
            return True
        marker = os.path.join(
            self.sentinel_dir, f"chaos-{kind}-{index}"
        )
        try:
            handle = os.open(
                marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        os.close(handle)
        return True


def chaos_apply(chaos: "ChaosConfig | None", index: int) -> None:
    """Run the configured injection for global item ``index``, if any.

    Called by the worker-side chunk runner immediately before each
    item.  Crash kills the worker process with exit code 1; fail
    raises :class:`ChaosFailure`; hang sleeps ``hang_s`` seconds (long
    enough to trip any reasonable per-item timeout).
    """
    if chaos is None:
        return
    if index in chaos.crash_items and chaos._claim("crash", index):
        os._exit(1)
    if index in chaos.fail_items and chaos._claim("fail", index):
        raise ChaosFailure(
            f"injected worker failure on item {index}"
        )
    if index in chaos.hang_items and chaos._claim("hang", index):
        time.sleep(chaos.hang_s)
