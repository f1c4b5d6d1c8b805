"""Acceptance tests: the pipeline reproduces ``synthesize()`` byte-for-byte.

These pin the ISSUE's hard criteria:

* for every bundled example DFG, driving the pass pipeline produces
  artifacts byte-identical to the pre-refactor monolithic flow (which
  ``synthesize()`` now *is* — so the comparison runs the passes by hand
  against the public API),
* a second run against the same ``--cache-dir`` satisfies every pass
  from cache and yields the same artifacts,
* the provenance manifest is byte-stable across fresh runs.
"""

import hashlib
from pathlib import Path

import pytest

from repro.benchmarks import all_benchmarks
from repro.perf.cache import SynthesisCache, artifact_fingerprint
from repro.pipeline import run_synthesis_pipeline, synthesize_design
from repro.serialize import design_to_dict, dumps

BENCHMARKS = [entry.name for entry in all_benchmarks()]
GOLDEN = Path(__file__).parent / "golden"


def _manual_flow(dfg, allocation):
    """The pre-pipeline synthesis flow, spelled out step by step."""
    from repro.binding.binder import bind
    from repro.control.distributed import build_distributed_control_unit
    from repro.core.validate import validate_dfg
    from repro.resources.allocation import ResourceAllocation
    from repro.scheduling.list_scheduler import list_schedule
    from repro.scheduling.order_based import order_based_schedule
    from repro.scheduling.taubm import derive_taubm_schedule

    if isinstance(allocation, str):
        allocation = ResourceAllocation.parse(allocation)
    validate_dfg(dfg)
    allocation.validate_for(dfg)
    schedule = list_schedule(dfg, allocation)
    order = order_based_schedule(dfg, allocation, objective="latency")
    bound = bind(dfg, allocation, order)
    taubm = derive_taubm_schedule(schedule, allocation)
    distributed = build_distributed_control_unit(bound)
    return schedule, order, bound, taubm, distributed


@pytest.mark.parametrize("name", BENCHMARKS)
def test_pipeline_matches_manual_flow(name):
    from repro.benchmarks.registry import benchmark

    entry = benchmark(name)
    dfg = entry.dfg()
    schedule, order, bound, taubm, distributed = _manual_flow(
        dfg, entry.allocation()
    )
    store, _ = run_synthesis_pipeline(dfg, entry.allocation())
    assert store.get("schedule") == schedule
    assert store.get("order") == order
    assert artifact_fingerprint(store.get("bound")) == artifact_fingerprint(
        bound
    )
    assert artifact_fingerprint(store.get("taubm")) == artifact_fingerprint(
        taubm
    )
    assert artifact_fingerprint(
        store.get("distributed")
    ) == artifact_fingerprint(distributed)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_synthesize_is_the_pipeline(name):
    """The public API and the pipeline return byte-identical designs."""
    from repro.api import synthesize
    from repro.benchmarks.registry import benchmark

    entry = benchmark(name)
    via_api = synthesize(entry.dfg(), entry.allocation())
    via_pipeline = synthesize_design(entry.dfg(), entry.allocation())
    assert dumps(design_to_dict(via_api)) == dumps(
        design_to_dict(via_pipeline)
    )


@pytest.mark.parametrize("name", BENCHMARKS)
def test_warm_cache_run_is_all_hits_and_identical(name, tmp_path):
    from repro.benchmarks.registry import benchmark

    entry = benchmark(name)
    cache_dir = str(tmp_path / "cache")
    _, cold = run_synthesis_pipeline(
        entry.dfg(), entry.allocation(), cache=SynthesisCache(cache_dir)
    )
    assert not cold.all_cached()
    # a *fresh* SynthesisCache proves the hits come from the directory,
    # not the in-memory layer
    warm_cache = SynthesisCache(cache_dir)
    store, warm = run_synthesis_pipeline(
        entry.dfg(), entry.allocation(), cache=warm_cache
    )
    assert warm.all_cached()
    assert warm_cache.misses == 0
    for record in warm.records:
        fresh = cold.record_for(record.name)
        assert record.inputs == fresh.inputs
        assert record.outputs == fresh.outputs
        assert record.cache_key == fresh.cache_key
    # and the rehydrated design serializes identically to a fresh one
    cached_result = synthesize_design(
        entry.dfg(), entry.allocation(), cache=warm_cache
    )
    fresh_result = synthesize_design(entry.dfg(), entry.allocation())
    assert dumps(design_to_dict(cached_result)) == dumps(
        design_to_dict(fresh_result)
    )


def test_manifest_byte_stable_for_every_benchmark():
    for entry in all_benchmarks():
        _, m1 = run_synthesis_pipeline(entry.dfg(), entry.allocation())
        _, m2 = run_synthesis_pipeline(entry.dfg(), entry.allocation())
        assert m1.to_json() == m2.to_json(), entry.name


def test_diffeq_manifest_and_cache_files_match_golden(tmp_path):
    """A full canned run keeps its manifest and cache-file bytes.

    The goldens pin every fingerprint, cache key and diagnostic of the
    nine passes, and the SHA-256 of each ``.syn.json`` file (in
    ``sha256sum`` format) the eight cacheable passes write.
    """
    from repro.benchmarks.registry import benchmark

    entry = benchmark("diffeq")
    cache_dir = tmp_path / "cache"
    _, manifest = run_synthesis_pipeline(
        entry.dfg(),
        entry.allocation(),
        upto=None,
        cache=SynthesisCache(str(cache_dir)),
    )
    expected = (GOLDEN / "manifest_diffeq.json").read_text()
    assert manifest.to_json() + "\n" == expected
    digests = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted(cache_dir.glob("*.syn.json"))
    )
    assert digests == (GOLDEN / "synth_cache_diffeq.sha256").read_text()
