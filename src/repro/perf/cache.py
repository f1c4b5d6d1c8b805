"""Stable fingerprints and the content-addressed synthesis cache.

Fingerprints are SHA-256 digests of canonical JSON (sorted keys, no
spaces) built from the serializations in :mod:`repro.serialize`, so two
processes always derive the same digest for the same artifact (nothing
hashed depends on ``PYTHONHASHSEED`` or object identity):

* :func:`design_fingerprint` — the dataflow graph, the allocation (unit
  names, kinds, level delays), the binding and the execution order;
* :func:`system_fingerprint` — a controller system's keys and FSM
  structure;
* one fingerprint per pipeline artifact type
  (:func:`artifact_fingerprint` dispatches).

The checkpoint journal keys its Monte-Carlo and fault-campaign runs on
the first two; :class:`SynthesisCache`, the per-pass cache behind
:mod:`repro.pipeline`, keys its entries on the artifact fingerprints.

On-disk entries are **self-healing**: every file embeds a SHA-256
checksum of its canonical payload and is published with an atomic
write-temp-then-rename, so a crash mid-``put`` can never tear an
entry.  A corrupt, truncated or checksum-failing file found by ``get``
is *quarantined* (renamed ``*.corrupt``), counted on the cache and
reported to the ambient :class:`~repro.runtime.policy.RunReport`, and
the pass is simply recomputed — corruption costs time, never
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..binding.binder import BoundDataflowGraph
    from ..core.dfg import DataflowGraph
    from ..fsm.model import FSM
    from ..resources.allocation import ResourceAllocation
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


def _canonical_text(payload: object) -> str:
    """Sorted-key, space-free JSON: the one text every digest hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: object) -> str:
    return hashlib.sha256(_canonical_text(payload).encode()).hexdigest()


# ----------------------------------------------------------------------
# Self-healing cache files
#
# Every entry is one envelope: {"sha256": <digest of canonical
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


#: the frame of the canonical envelope :func:`_write_entry` writes:
#: ``{"payload":<payload text>,"sha256":"<64 hex digits>"}``
_ENVELOPE_HEAD = '{"payload":'
_ENVELOPE_TAIL = ',"sha256":"'
_ENVELOPE_TAIL_LEN = len(_ENVELOPE_TAIL) + 64 + len('"}')

#: "no verified canonical envelope here" (a payload may be ``null``)
_UNVERIFIED = object()


def _verified_slice(text: str) -> object:
    """The payload of a canonical envelope whose stored slice verifies.

    The payload text sits between a fixed head and tail, so it is hashed
    as stored and parsed once.  Anything else — another shape, a slice
    that fails its hash or does not parse — returns ``_UNVERIFIED``.
    """
    if not text.startswith(_ENVELOPE_HEAD) or not text.endswith('"}'):
        return _UNVERIFIED
    tail = text[-_ENVELOPE_TAIL_LEN:]
    body = text[len(_ENVELOPE_HEAD) : -_ENVELOPE_TAIL_LEN]
    if not tail.startswith(_ENVELOPE_TAIL):
        return _UNVERIFIED
    digest = tail[len(_ENVELOPE_TAIL) : -2]
    if hashlib.sha256(body.encode()).hexdigest() != digest:
        return _UNVERIFIED
    try:
        return json.loads(body)
    except ValueError:
        return _UNVERIFIED


def _read_entry(cache, file_path: str) -> "object | None":
    """Verified payload of one cache file, or ``None`` (miss).

    A canonical envelope, the text :func:`_write_entry` writes, is
    verified on its stored payload slice.  Any other file is parsed
    whole and its payload re-serialized for the checksum: a
    hand-written envelope, a legacy bare payload, or a canonical one
    whose slice fails (so a corrupt entry is judged exactly as before).
    Corruption of any shape — unreadable bytes, truncated JSON, a
    failing checksum — quarantines the file instead of raising.
    """
    try:
        with open(file_path) as handle:
            text = handle.read()
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError):
        _quarantine_entry(cache, file_path, "is unreadable or truncated")
        return None
    payload = _verified_slice(text)
    if payload is not _UNVERIFIED:
        return payload
    try:
        data = json.loads(text)
    except ValueError:
        _quarantine_entry(cache, file_path, "is unreadable or truncated")
        return None
    if (
        isinstance(data, dict)
        and set(data.keys()) == {"sha256", "payload"}
    ):
        digest = hashlib.sha256(
            _canonical_text(data["payload"]).encode()
        ).hexdigest()
        if digest != data["sha256"]:
            _quarantine_entry(cache, file_path, "failed its checksum")
            return None
        return data["payload"]
    return data  # legacy bare payload (pre-envelope format)


class SynthesisCache:
    """In-memory, optionally directory-backed synthesis-artifact cache.

    The pipeline (:mod:`repro.pipeline`) stores one JSON payload per
    executed pass, keyed by a digest of the pass name, the fingerprints
    of its input artifacts and its options.  ``path=None`` keeps entries
    in-process; with a directory every entry is also written as
    ``<key>.syn.json``.  The suffix is part of the on-disk format, so a
    directory written by an earlier version stays warm.
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
