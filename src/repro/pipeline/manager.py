"""The pass manager: run declared passes over an artifact store.

Running a pipeline is a fold over the pass list: for each pass the
manager reads the required input fingerprints from the store (which
digests each artifact once per run), merges options, consults the
synthesis-artifact cache (when the pass is cacheable and a cache is
supplied), executes or rehydrates, stores the provided artifacts, and
appends a provenance record to the run manifest.  The cache key covers
the pass name, every input fingerprint and the options, so a hit is
only possible when recomputing would provably yield the same bytes.  A
cached payload that does not rehydrate is quarantined and the pass is
computed instead.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from typing import Any

from ..core.dfg import DataflowGraph
from ..errors import PipelineError, ReproError
from ..perf.cache import SynthesisCache
from ..resources.allocation import ResourceAllocation
from .artifacts import ArtifactStore
from .manifest import CACHED, COMPUTED, PassRecord, RunManifest
from .passes import Pass, check_pass_order, synthesis_passes


def _canonical_options(options: Mapping[str, Any]) -> dict[str, Any]:
    """Options as JSON-stable values (for cache keys and manifests)."""
    canonical: dict[str, Any] = {}
    for name, value in options.items():
        if isinstance(value, (tuple, list)):
            canonical[name] = list(value)
        elif isinstance(value, (bool, int, float, str)) or value is None:
            canonical[name] = value
        else:
            raise PipelineError(
                f"pass option {name!r} must be a JSON-stable value, "
                f"got {type(value).__name__}"
            )
    return canonical


#: what a malformed cached payload raises while being rehydrated
_UNDECODABLE = (
    ReproError,
    LookupError,
    TypeError,
    ValueError,
    AttributeError,
)


class PassManager:
    """Runs an ordered pass list over an :class:`ArtifactStore`."""

    def __init__(self, passes: "Sequence[Pass] | None" = None) -> None:
        self.passes = tuple(
            passes if passes is not None else synthesis_passes()
        )
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise PipelineError(f"duplicate pass names in {names}")
        check_pass_order(self.passes)

    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def get_pass(self, name: str) -> Pass:
        for p in self.passes:
            if p.name == name:
                return p
        known = ", ".join(self.pass_names())
        raise PipelineError(f"unknown pass {name!r}; declared: {known}")

    def run(
        self,
        store: ArtifactStore,
        *,
        upto: "str | None" = None,
        options: "Mapping[str, Mapping[str, Any]] | None" = None,
        cache: "SynthesisCache | None" = None,
        manifest: "RunManifest | None" = None,
    ) -> RunManifest:
        """Execute passes in order, stopping after ``upto`` (inclusive).

        ``options`` maps pass names to option overrides; unknown pass
        names in it are rejected.  Returns the run manifest (the one
        passed in, extended, or a fresh one).
        """
        if upto is not None:
            self.get_pass(upto)  # fail fast on unknown target
        options = dict(options or {})
        for name in options:
            self.get_pass(name)
        if manifest is None:
            manifest = RunManifest()
        for p in self.passes:
            manifest.append(
                self._run_pass(p, store, options.get(p.name), cache)
            )
            if p.name == upto:
                break
        return manifest

    def _run_pass(
        self,
        p: Pass,
        store: ArtifactStore,
        overrides: "Mapping[str, Any] | None",
        cache: "SynthesisCache | None",
    ) -> PassRecord:
        opts = _canonical_options(p.resolve_options(overrides))
        inputs = {name: store.fingerprint(name) for name in p.requires}
        cache_key = (
            SynthesisCache.key(p.name, inputs, opts)
            if p.cacheable
            else None
        )
        diagnostics: list[dict] = []
        started = time.perf_counter()
        status = COMPUTED
        artifacts: "dict[str, object] | None" = None
        if cache is not None and cache_key is not None:
            payload = cache.get(cache_key)
            if payload is not None:
                try:
                    artifacts = p.from_payload(payload["artifacts"], store)
                    diagnostics = [dict(d) for d in payload["diagnostics"]]
                except _UNDECODABLE as exc:
                    # the envelope passed but the payload is not this
                    # pass's: costs a recompute, never the run
                    cache.quarantine(
                        cache_key,
                        f"does not rehydrate ({type(exc).__name__})",
                    )
                    artifacts = None
                else:
                    status = CACHED
        if artifacts is None:
            artifacts = p.run(store, opts, diagnostics)
            if cache is not None and cache_key is not None:
                cache.put(
                    cache_key,
                    {
                        "artifacts": p.to_payload(artifacts),
                        "diagnostics": diagnostics,
                    },
                )
        elapsed = time.perf_counter() - started
        produced = set(artifacts)
        if produced != set(p.provides):
            raise PipelineError(
                f"pass {p.name!r} produced {sorted(produced)} but "
                f"declares {sorted(p.provides)}"
            )
        for name, value in artifacts.items():
            store.put(name, value)
        outputs = {name: store.fingerprint(name) for name in p.provides}
        return PassRecord(
            name=p.name,
            status=status,
            inputs=inputs,
            options=opts,
            outputs=outputs,
            diagnostics=tuple(diagnostics),
            cache_key=cache_key,
            wall_time_s=elapsed,
        )


# ----------------------------------------------------------------------
# High-level entry points
# ----------------------------------------------------------------------
def run_synthesis_pipeline(
    dfg: DataflowGraph,
    allocation: "ResourceAllocation | str",
    *,
    scheduler: str = "list",
    objective: str = "latency",
    upto: "str | None" = "distributed",
    options: "Mapping[str, Mapping[str, Any]] | None" = None,
    cache: "SynthesisCache | None" = None,
    passes: "Sequence[Pass] | None" = None,
) -> tuple[ArtifactStore, RunManifest]:
    """Run the canned flow on a graph, returning store and manifest.

    ``scheduler`` and ``objective`` are shorthands for the equivalent
    per-pass entries of ``options``; explicit ``options`` entries win.
    ``cache=None`` falls back to the process-default synthesis cache
    (see :func:`set_default_synthesis_cache`).
    """
    if isinstance(allocation, str):
        allocation = ResourceAllocation.parse(allocation)
    merged: dict[str, dict[str, Any]] = {
        "schedule": {"scheduler": scheduler},
        "order": {"objective": objective},
    }
    for name, overrides in (options or {}).items():
        merged.setdefault(name, {}).update(overrides)
    store = ArtifactStore(dfg=dfg, allocation=allocation)
    manifest = PassManager(passes).run(
        store,
        upto=upto,
        options=merged,
        cache=cache if cache is not None else default_synthesis_cache(),
    )
    return store, manifest


def synthesize_design(
    dfg: DataflowGraph,
    allocation: "ResourceAllocation | str",
    scheduler: str = "list",
    objective: str = "latency",
    *,
    cache: "SynthesisCache | None" = None,
    options: "Mapping[str, Mapping[str, Any]] | None" = None,
):
    """The pipeline behind :func:`repro.synthesize`.

    Runs the canned passes up to ``distributed`` and assembles the
    public :class:`~repro.api.SynthesisResult` from the store.
    """
    from ..api import SynthesisResult

    store, _ = run_synthesis_pipeline(
        dfg,
        allocation,
        scheduler=scheduler,
        objective=objective,
        upto="distributed",
        options=options,
        cache=cache,
    )
    return SynthesisResult(
        dfg=store.get("dfg"),
        allocation=store.get("allocation"),
        schedule=store.get("schedule"),
        order=store.get("order"),
        bound=store.get("bound"),
        taubm=store.get("taubm"),
        distributed=store.get("distributed"),
    )


# ----------------------------------------------------------------------
# Process-default synthesis cache
#
# ``repro experiments --cache-dir`` and ``repro bench --cache-dir`` set
# this once; every synthesis through the pipeline (drivers, campaigns,
# sweeps) then shares the same artifact cache without threading a cache
# object through each call chain.
# ----------------------------------------------------------------------
_default_cache: "SynthesisCache | None" = None


def set_default_synthesis_cache(
    cache: "SynthesisCache | None",
) -> "SynthesisCache | None":
    """Install the process-default cache; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def default_synthesis_cache() -> "SynthesisCache | None":
    """The process-default synthesis-artifact cache (or ``None``)."""
    return _default_cache
