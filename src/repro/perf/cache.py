"""Content-addressed simulation-result cache.

Regenerating a figure or sweep re-runs exactly the simulations that ran
last time: same design, same completion model, same seed, same
iteration count.  The cache turns that repetition into a lookup.  Keys
are SHA-256 digests over

* the **design fingerprint** — the serialized dataflow graph, the
  allocation (unit names, kinds, level delays), the binding and the
  execution order,
* the **controller fingerprint** — which controller system (its keys
  and FSM structure) drives the run,
* the **completion model fingerprint** — type and parameters,
* ``seed`` and ``iterations``.

A key therefore changes whenever anything that could change the outcome
changes; two processes always derive the same key for the same run
(nothing hashed depends on ``PYTHONHASHSEED`` or object identity).

Entries store the cheap, deterministic subset of a
:class:`~repro.sim.simulator.SimulationResult` (cycle counts, per-op
outcomes — never traces or datapaths), JSON-serializable so a cache can
persist to a directory and survive across processes.

On-disk entries are **self-healing**: every file embeds a SHA-256
checksum of its canonical payload and is published with an atomic
write-temp-then-rename, so a crash mid-``put`` can never tear an
entry.  A corrupt, truncated or checksum-failing file found by ``get``
is *quarantined* (renamed ``*.corrupt``), counted on the cache and
reported to the ambient :class:`~repro.runtime.policy.RunReport`, and
the result is simply recomputed — corruption costs time, never
correctness and never an exception out of ``get``.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Mapping
from typing import TYPE_CHECKING

from ..runtime.journal import atomic_write_text
from ..runtime.policy import record_event

from ..serialize import dfg_to_dict
from ..sim.simulator import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..binding.binder import BoundDataflowGraph
    from ..core.dfg import DataflowGraph
    from ..fsm.model import FSM
    from ..resources.allocation import ResourceAllocation
    from ..resources.completion import CompletionModel
    from ..scheduling.schedule import (
        OrderSchedule,
        TaubmSchedule,
        TimeStepSchedule,
    )
    from ..sim.controllers import ControllerSystem


def design_fingerprint(bound: "BoundDataflowGraph") -> str:
    """Stable digest of a bound design (DFG + allocation + binding)."""
    units = [
        {
            "name": unit.name,
            "class": unit.resource_class.value,
            "telescopic": unit.is_telescopic,
            "levels": list(unit.level_delays_ns),
        }
        for unit in bound.allocation
    ]
    payload = {
        "dfg": dfg_to_dict(bound.dfg),
        "units": units,
        "clock_ns": bound.allocation.clock_period_ns(),
        "binding": dict(sorted(bound.binding.items())),
        "edges": sorted(bound.execution_edges()),
    }
    return _digest(payload)


# ----------------------------------------------------------------------
# Synthesis-artifact fingerprints
#
# One stable digest per pipeline artifact type, all built from the exact
# serializations in :mod:`repro.serialize` — so a fingerprint changes if
# and only if the serialized artifact would.  :mod:`repro.pipeline` keys
# its per-pass cache on these.
# ----------------------------------------------------------------------
def dfg_fingerprint(dfg: "DataflowGraph") -> str:
    """Stable digest of a dataflow graph."""
    return _digest(dfg_to_dict(dfg))


def allocation_fingerprint(allocation: "ResourceAllocation") -> str:
    """Stable digest of an allocation (units, kinds, delays, clock)."""
    return _digest(
        {
            "units": [
                {
                    "name": unit.name,
                    "class": unit.resource_class.value,
                    "telescopic": unit.is_telescopic,
                    "levels": list(unit.level_delays_ns),
                }
                for unit in allocation
            ],
            "clock_ns": allocation.clock_period_ns(),
        }
    )


def schedule_fingerprint(schedule: "TimeStepSchedule") -> str:
    """Stable digest of a time-step schedule (graph + start times)."""
    from ..serialize import schedule_to_dict

    return _digest(
        {
            "dfg": dfg_fingerprint(schedule.dfg),
            "schedule": schedule_to_dict(schedule),
        }
    )


def order_fingerprint(order: "OrderSchedule") -> str:
    """Stable digest of an order-based schedule (chains + arcs)."""
    from ..serialize import order_to_dict

    return _digest(
        {
            "dfg": dfg_fingerprint(order.dfg),
            "order": order_to_dict(order),
        }
    )


def taubm_fingerprint(taubm: "TaubmSchedule") -> str:
    """Stable digest of a TAUBM schedule."""
    from ..serialize import taubm_to_dict

    return _digest(
        {
            "dfg": dfg_fingerprint(taubm.dfg),
            "taubm": taubm_to_dict(taubm),
        }
    )


def fsm_fingerprint(fsm: "FSM") -> str:
    """Stable digest of one FSM."""
    from ..serialize import fsm_to_dict

    return _digest(fsm_to_dict(fsm))


def distributed_fingerprint(unit) -> str:
    """Stable digest of a distributed control unit."""
    from ..serialize import distributed_to_dict

    return _digest(
        {
            "design": design_fingerprint(unit.bound),
            "unit": distributed_to_dict(unit),
        }
    )


def artifact_fingerprint(artifact: object) -> str:
    """Dispatch to the right fingerprint for any pipeline artifact."""
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

    if isinstance(artifact, DataflowGraph):
        return dfg_fingerprint(artifact)
    if isinstance(artifact, ResourceAllocation):
        return allocation_fingerprint(artifact)
    if isinstance(artifact, TimeStepSchedule):
        return schedule_fingerprint(artifact)
    if isinstance(artifact, OrderSchedule):
        return order_fingerprint(artifact)
    if isinstance(artifact, TaubmSchedule):
        return taubm_fingerprint(artifact)
    if isinstance(artifact, BoundDataflowGraph):
        return design_fingerprint(artifact)
    if isinstance(artifact, DistributedControlUnit):
        return distributed_fingerprint(artifact)
    if isinstance(artifact, FSM):
        return fsm_fingerprint(artifact)
    raise TypeError(
        f"no fingerprint for artifact type {type(artifact).__name__!r}"
    )


def system_fingerprint(system: "ControllerSystem") -> str:
    """Stable digest of a controller system's keys and FSM structure."""
    payload = {
        "keys": list(system.keys),
        "edges": list(system.dependence_edges()),
        "fsms": [
            {
                "name": fsm.name,
                "states": list(fsm.states),
                "initial": fsm.initial,
                "transitions": [str(t) for t in fsm.transitions],
                "initial_starts": sorted(fsm.initial_starts),
            }
            for fsm in (system.fsm(key) for key in system.keys)
        ],
    }
    return _digest(payload)


def model_fingerprint(model: "CompletionModel") -> str:
    """Stable digest of a completion model's type and parameters."""
    return _digest(_model_payload(model))


def _model_payload(model: "CompletionModel") -> dict:
    payload: dict = {"type": type(model).__qualname__}
    for name, value in sorted(vars(model).items()):
        if name.startswith("_"):
            # Mutable run state (trace cursors, Markov history) must not
            # leak into cache identity.
            continue
        if isinstance(value, (bool, int, float, str)) or value is None:
            payload[name] = value
        elif isinstance(value, (tuple, list)):
            payload[name] = [repr(v) for v in value]
        elif isinstance(value, Mapping):
            payload[name] = {
                str(k): repr(v) for k, v in sorted(value.items())
            }
        else:
            payload[name] = repr(value)
    return payload


def _canonical_text(payload: object) -> str:
    """Sorted-key, space-free JSON: the one text every digest hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: object) -> str:
    return hashlib.sha256(_canonical_text(payload).encode()).hexdigest()


# ----------------------------------------------------------------------
# Self-healing cache files
#
# One envelope for both caches: {"sha256": <digest of canonical
# payload>, "payload": {...}}, written atomically.  Reading verifies
# the checksum; anything unreadable or mismatching is quarantined and
# treated as a miss.  Legacy files (bare payloads from before the
# envelope existed) are still accepted — they simply carry no checksum.
# ----------------------------------------------------------------------
def _write_entry(file_path: str, text: str) -> None:
    """Atomically publish the envelope of one canonical payload text.

    The envelope is the canonical text of ``{"payload": ...,
    "sha256": ...}`` (sorted keys put ``payload`` first), assembled
    around ``text`` instead of parsing and re-serializing the payload.
    """
    digest = hashlib.sha256(text.encode()).hexdigest()
    atomic_write_text(file_path, f'{{"payload":{text},"sha256":"{digest}"}}')


def _quarantine_entry(cache, file_path: str, reason: str) -> None:
    try:
        os.replace(file_path, file_path + ".corrupt")
    except OSError:  # pragma: no cover - racing cleanup
        pass
    cache.quarantined += 1
    record_event(
        None,
        "cache-quarantine",
        f"cache entry {os.path.basename(file_path)} {reason}; "
        "moved aside and recomputing",
    )


def _read_entry(cache, file_path: str) -> "object | None":
    """Verified payload of one cache file, or ``None`` (miss).

    Corruption of any shape — unreadable bytes, truncated JSON, a
    failing checksum — quarantines the file instead of raising.
    """
    try:
        with open(file_path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, UnicodeDecodeError):
        _quarantine_entry(cache, file_path, "is unreadable or truncated")
        return None
    if (
        isinstance(data, dict)
        and set(data.keys()) == {"sha256", "payload"}
    ):
        text = json.dumps(
            data["payload"], sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != data["sha256"]:
            _quarantine_entry(cache, file_path, "failed its checksum")
            return None
        return data["payload"]
    return data  # legacy bare payload (pre-envelope format)


def _result_to_dict(result: SimulationResult) -> dict:
    return {
        "cycles": result.cycles,
        "clock_ns": result.clock_ns,
        "start_cycles": dict(sorted(result.start_cycles.items())),
        "finish_cycles": dict(sorted(result.finish_cycles.items())),
        "iteration_finish_cycles": list(result.iteration_finish_cycles),
        "fast_outcomes": {
            op: list(v) for op, v in sorted(result.fast_outcomes.items())
        },
        "level_outcomes": {
            op: list(v) for op, v in sorted(result.level_outcomes.items())
        },
        "token_overruns": result.token_overruns,
    }


def _result_from_dict(data: Mapping) -> SimulationResult:
    return SimulationResult(
        cycles=int(data["cycles"]),
        clock_ns=float(data["clock_ns"]),
        start_cycles={
            k: int(v) for k, v in data["start_cycles"].items()
        },
        finish_cycles={
            k: int(v) for k, v in data["finish_cycles"].items()
        },
        iteration_finish_cycles=tuple(
            int(v) for v in data["iteration_finish_cycles"]
        ),
        fast_outcomes={
            op: tuple(bool(b) for b in v)
            for op, v in data["fast_outcomes"].items()
        },
        level_outcomes={
            op: tuple(int(b) for b in v)
            for op, v in data["level_outcomes"].items()
        },
        token_overruns=int(data["token_overruns"]),
    )


class SimulationCache:
    """In-memory, optionally directory-backed simulation result cache.

    ``path=None`` keeps entries in-process only; with a directory path
    every entry is additionally written as ``<key>.json`` and found
    again by any later process — regenerating a report after touching
    one benchmark re-simulates only that benchmark.
    """

    def __init__(self, path: "str | None" = None) -> None:
        self._memory: dict[str, SimulationResult] = {}
        self._path = path
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        if path is not None:
            os.makedirs(path, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def key(
        self,
        system: "ControllerSystem",
        bound: "BoundDataflowGraph",
        model: "CompletionModel",
        *,
        seed: int,
        iterations: int,
    ) -> str:
        """Content address of one simulation run."""
        return _digest(
            {
                "design": design_fingerprint(bound),
                "system": system_fingerprint(system),
                "model": _model_payload(model),
                "seed": int(seed),
                "iterations": int(iterations),
            }
        )

    def get(self, key: str) -> "SimulationResult | None":
        result = self._memory.get(key)
        if result is None and self._path is not None:
            file_path = os.path.join(self._path, f"{key}.json")
            payload = _read_entry(self, file_path)
            if payload is not None:
                try:
                    result = _result_from_dict(payload)
                except (KeyError, TypeError, ValueError, AttributeError):
                    _quarantine_entry(
                        self, file_path, "does not decode to a result"
                    )
                    result = None
                else:
                    self._memory[key] = result
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        stored = SimulationResult(**_result_to_dict_kwargs(result))
        self._memory[key] = stored
        if self._path is not None:
            file_path = os.path.join(self._path, f"{key}.json")
            _write_entry(file_path, _canonical_text(_result_to_dict(stored)))


def _result_to_dict_kwargs(result: SimulationResult) -> dict:
    """Strip trace/datapath so cached entries stay value-only."""
    return {
        "cycles": result.cycles,
        "clock_ns": result.clock_ns,
        "start_cycles": dict(result.start_cycles),
        "finish_cycles": dict(result.finish_cycles),
        "iteration_finish_cycles": result.iteration_finish_cycles,
        "fast_outcomes": dict(result.fast_outcomes),
        "level_outcomes": dict(result.level_outcomes),
        "token_overruns": result.token_overruns,
    }


def simulate_cached(
    system: "ControllerSystem",
    bound: "BoundDataflowGraph",
    model: "CompletionModel",
    *,
    cache: "SimulationCache | None",
    seed: int = 0,
    iterations: int = 1,
    **kwargs,
) -> SimulationResult:
    """:func:`~repro.sim.simulator.simulate` through a cache.

    Only pure value runs are cacheable: a request recording a trace,
    driving a datapath or customizing monitors bypasses the cache (the
    extra artifacts are not content-addressed).
    """
    from ..sim.simulator import simulate

    cacheable = cache is not None and not kwargs
    if not cacheable:
        return simulate(
            system, bound, model, seed=seed, iterations=iterations, **kwargs
        )
    key = cache.key(system, bound, model, seed=seed, iterations=iterations)
    found = cache.get(key)
    if found is not None:
        return found
    result = simulate(
        system, bound, model, seed=seed, iterations=iterations
    )
    cache.put(key, result)
    return result


class SynthesisCache:
    """In-memory, optionally directory-backed synthesis-artifact cache.

    The pipeline (:mod:`repro.pipeline`) stores one JSON payload per
    executed pass, keyed by a digest of the pass name, the fingerprints
    of its input artifacts and its options.  ``path=None`` keeps entries
    in-process; with a directory every entry is also written as
    ``<key>.syn.json`` (the suffix keeps synthesis entries disjoint from
    :class:`SimulationCache` files, so both caches can share one
    ``--cache-dir``).
    """

    def __init__(self, path: "str | None" = None) -> None:
        self._memory: dict[str, dict] = {}
        self._path = path
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        if path is not None:
            os.makedirs(path, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        # an *empty* cache is still a cache — never let ``if cache:``
        # silently drop a freshly-created one
        return True

    @staticmethod
    def key(
        pass_name: str,
        inputs: Mapping[str, str],
        options: Mapping[str, object],
    ) -> str:
        """Content address of one pass execution."""
        return _digest(
            {
                "pass": pass_name,
                "inputs": dict(sorted(inputs.items())),
                "options": dict(sorted(options.items())),
            }
        )

    def get(self, key: str) -> "dict | None":
        payload = self._memory.get(key)
        if payload is None and self._path is not None:
            file_path = os.path.join(self._path, f"{key}.syn.json")
            entry = _read_entry(self, file_path)
            if entry is not None and not isinstance(entry, dict):
                _quarantine_entry(
                    self, file_path, "does not decode to a pass payload"
                )
                entry = None
            if entry is not None:
                payload = entry
                self._memory[key] = payload
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key: str, payload: Mapping) -> None:
        text = _canonical_text(payload)
        # a parsed copy, so later edits to ``payload`` cannot reach it
        self._memory[key] = json.loads(text)
        if self._path is not None:
            file_path = os.path.join(self._path, f"{key}.syn.json")
            _write_entry(file_path, text)

    def quarantine(self, key: str, reason: str) -> None:
        """Drop an entry that :meth:`get` returned but that does not decode.

        ``get`` checks only the envelope; the pass reading the payload
        finds out whether it rehydrates.  The lookup is recounted as a
        miss, and a directory entry is moved aside as ``*.corrupt`` like
        any other corrupt file, so the recomputed pass writes a new one.
        """
        self._memory.pop(key, None)
        self.hits -= 1
        self.misses += 1
        if self._path is not None:
            file_path = os.path.join(self._path, f"{key}.syn.json")
            _quarantine_entry(self, file_path, reason)
