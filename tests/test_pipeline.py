"""Tests for the pass-based synthesis pipeline."""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.benchmarks import differential_equation, fir3
from repro.errors import (
    PipelineError,
    SchedulingError,
    SchedulingFallbackWarning,
)
from repro.perf.cache import SynthesisCache, artifact_fingerprint
from repro.pipeline import (
    ARTIFACT_TYPES,
    ArtifactStore,
    BINDERS,
    CONTROLLER_BACKENDS,
    ORDER_OBJECTIVES,
    PassManager,
    Registry,
    SCHEDULERS,
    run_synthesis_pipeline,
    set_default_synthesis_cache,
    synthesis_passes,
    synthesize_design,
)
from repro.pipeline.passes import Pass
from repro.resources.allocation import ResourceAllocation


class TestArtifactStore:
    def test_put_get_round_trip(self):
        store = ArtifactStore(dfg=fir3())
        assert store.get("dfg").name == "fir3"
        assert "dfg" in store and "schedule" not in store

    def test_unknown_name_rejected(self):
        with pytest.raises(PipelineError, match="unknown artifact name"):
            ArtifactStore().put("frobnicate", fir3())

    def test_wrong_type_rejected(self):
        with pytest.raises(PipelineError, match="must be DataflowGraph"):
            ArtifactStore().put("dfg", "not a graph")

    def test_missing_artifact_reported(self):
        with pytest.raises(PipelineError, match="not been produced"):
            ArtifactStore().get("schedule")

    def test_names_cover_declared_types(self):
        store = ArtifactStore(
            dfg=fir3(), allocation=ResourceAllocation.parse("mul:2T,add:1")
        )
        assert store.names() == ("dfg", "allocation")
        assert set(ARTIFACT_TYPES) >= set(store.names())

    def test_put_replaces_memoized_fingerprint(self):
        store = ArtifactStore(dfg=fir3())
        first = store.fingerprint("dfg")
        assert first == artifact_fingerprint(fir3())
        store.put("dfg", differential_equation())
        assert store.fingerprint("dfg") == artifact_fingerprint(
            differential_equation()
        )
        assert store.fingerprint("dfg") != first

    def test_fingerprint_of_missing_artifact_reported(self):
        with pytest.raises(PipelineError, match="not been produced"):
            ArtifactStore().fingerprint("schedule")


class TestRegistries:
    def test_scheduler_names(self):
        assert SCHEDULERS.names() == (
            "alap", "asap", "exact", "force-directed", "list",
        )

    def test_other_registries(self):
        assert ORDER_OBJECTIVES.names() == ("communication", "latency")
        assert BINDERS.names() == ("chain",)
        assert CONTROLLER_BACKENDS.names() == ("cent", "cent-sync", "dist")

    def test_unknown_scheduler_lists_choices(self):
        with pytest.raises(SchedulingError, match="'force-directed'"):
            SCHEDULERS.get("bogus")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("x", lambda: None)
        with pytest.raises(PipelineError, match="already registered"):
            registry.register("x", lambda: None)

    def test_registration_extends_synthesize(self):
        """A registered scheduler is reachable by name, then removable."""
        from repro import synthesize

        @SCHEDULERS.register("test-only", summary="list in disguise")
        def _test_only(dfg, allocation, *, diagnostics, **options):
            from repro.scheduling.list_scheduler import list_schedule

            return list_schedule(dfg, allocation)

        try:
            result = synthesize(fir3(), "mul:2T,add:1",
                                scheduler="test-only")
            assert result.schedule.num_steps >= 1
        finally:
            SCHEDULERS._entries.pop("test-only")


class TestPassManager:
    def test_pass_names_in_order(self):
        assert PassManager().pass_names() == (
            "validate", "schedule", "order", "bind", "taubm",
            "distributed", "verify-artifacts", "model-check",
            "cent-fsms",
        )

    def test_unknown_upto_rejected(self):
        store = ArtifactStore(
            dfg=fir3(), allocation=ResourceAllocation.parse("mul:2T,add:1")
        )
        with pytest.raises(PipelineError, match="unknown pass"):
            PassManager().run(store, upto="frobnicate")

    def test_unknown_options_pass_rejected(self):
        store = ArtifactStore(
            dfg=fir3(), allocation=ResourceAllocation.parse("mul:2T,add:1")
        )
        with pytest.raises(PipelineError, match="unknown pass"):
            PassManager().run(store, options={"frobnicate": {}})

    def test_upto_stops_early(self):
        store, manifest = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", upto="order"
        )
        assert manifest.pass_names() == ("validate", "schedule", "order")
        assert "order" in store and "bound" not in store

    def test_full_run_provides_cent_fsms(self):
        store, manifest = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", upto=None
        )
        assert "cent_sync_fsm" in store and "cent_fsm" in store
        assert manifest.pass_names()[-1] == "cent-fsms"

    def test_misordered_passes_rejected(self):
        passes = synthesis_passes()
        with pytest.raises(PipelineError, match="requires"):
            PassManager((passes[3], passes[1]))

    def test_lying_pass_rejected(self):
        lying = Pass(
            name="liar",
            requires=("dfg",),
            provides=("schedule",),
            run=lambda store, options, diagnostics: {},
        )
        store = ArtifactStore(
            dfg=fir3(), allocation=ResourceAllocation.parse("mul:2T,add:1")
        )
        with pytest.raises(PipelineError, match="declares"):
            PassManager((lying,)).run(store)

    def test_custom_pass_runs(self):
        """The docs' "build your own pass" recipe works end to end."""
        seen = []

        def _audit(store, options, diagnostics):
            seen.append(store.get("schedule").num_steps)
            diagnostics.append({"event": "audited"})
            return {}

        audit = Pass(
            name="audit",
            requires=("schedule",),
            provides=(),
            run=_audit,
            summary="records the schedule length",
        )
        passes = synthesis_passes()[:2] + (audit,)
        store = ArtifactStore(
            dfg=fir3(), allocation=ResourceAllocation.parse("mul:2T,add:1")
        )
        manifest = PassManager(passes).run(store)
        assert seen == [store.get("schedule").num_steps]
        assert manifest.record_for("audit").diagnostics[0]["event"] == (
            "audited"
        )

    def test_non_json_option_rejected(self):
        with pytest.raises(PipelineError, match="JSON-stable"):
            run_synthesis_pipeline(
                fir3(), "mul:2T,add:1",
                options={"schedule": {"bad": object()}},
            )


class TestManifest:
    def test_byte_stable_across_fresh_runs(self):
        _, m1 = run_synthesis_pipeline(
            differential_equation(), "mul:2T,add:1,sub:1"
        )
        _, m2 = run_synthesis_pipeline(
            differential_equation(), "mul:2T,add:1,sub:1"
        )
        assert m1.to_json() == m2.to_json()
        assert m1.to_json().encode() == m2.to_json().encode()

    def test_manifest_records_fingerprints(self):
        store, manifest = run_synthesis_pipeline(fir3(), "mul:2T,add:1")
        record = manifest.record_for("bind")
        assert record.outputs["bound"] == artifact_fingerprint(
            store.get("bound")
        )
        assert record.inputs["order"] == artifact_fingerprint(
            store.get("order")
        )

    def test_timing_is_opt_in(self):
        _, manifest = run_synthesis_pipeline(fir3(), "mul:2T,add:1")
        assert "wall_time_s" not in manifest.to_json()
        assert "wall_time_s" in manifest.to_json(timing=True)

    def test_render_lists_every_pass(self):
        _, manifest = run_synthesis_pipeline(fir3(), "mul:2T,add:1")
        text = manifest.render()
        for name in manifest.pass_names():
            assert name in text

    def test_json_round_trips_as_json(self):
        _, manifest = run_synthesis_pipeline(fir3(), "mul:2T,add:1")
        data = json.loads(manifest.to_json())
        assert data["format"] == 1
        assert [p["pass"] for p in data["passes"]] == list(
            manifest.pass_names()
        )


class TestCaching:
    def test_second_run_all_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", cache=SynthesisCache(cache_dir)
        )
        cache = SynthesisCache(cache_dir)
        _, manifest = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", cache=cache
        )
        assert manifest.all_cached()
        assert cache.hits == 5 and cache.misses == 0

    def test_cached_artifacts_identical(self, tmp_path):
        from repro.serialize import design_to_dict, dumps

        cache = SynthesisCache(str(tmp_path / "cache"))
        fresh = synthesize_design(fir3(), "mul:2T,add:1", cache=cache)
        cached = synthesize_design(fir3(), "mul:2T,add:1", cache=cache)
        assert dumps(design_to_dict(fresh)) == dumps(design_to_dict(cached))

    def test_option_change_misses(self):
        cache = SynthesisCache()
        run_synthesis_pipeline(fir3(), "mul:2T,add:1", cache=cache)
        _, manifest = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", objective="communication", cache=cache
        )
        record = manifest.record_for("order")
        assert record.status == "computed"
        # schedule has identical inputs and options: still a hit
        assert manifest.record_for("schedule").status == "cached"

    def test_prefix_reuse_across_designs(self):
        """Caching is content-addressed, not run-addressed.

        Changing the order objective recomputes ``order`` (its options
        changed) but every pass whose *inputs* are byte-identical still
        hits — including ``bind``, because on fir3 both objectives
        produce the same order artifact.
        """
        cache = SynthesisCache()
        s1, _ = run_synthesis_pipeline(fir3(), "mul:2T,add:1", cache=cache)
        s2, manifest = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", objective="communication", cache=cache
        )
        statuses = {
            r.name: r.status for r in manifest.records if r.cacheable
        }
        assert statuses["schedule"] == "cached"
        assert statuses["taubm"] == "cached"
        assert statuses["order"] == "computed"
        assert artifact_fingerprint(s1.get("order")) == artifact_fingerprint(
            s2.get("order")
        )
        assert statuses["bind"] == "cached"

    def test_validate_not_cacheable(self):
        _, manifest = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", cache=SynthesisCache()
        )
        assert manifest.record_for("validate").cache_key is None

    def test_default_cache_is_used(self):
        cache = SynthesisCache()
        previous = set_default_synthesis_cache(cache)
        try:
            synthesize_design(fir3(), "mul:2T,add:1")
            synthesize_design(fir3(), "mul:2T,add:1")
        finally:
            set_default_synthesis_cache(previous)
        assert cache.hits == 5

    def test_cent_fsms_cached(self, tmp_path):
        from repro.serialize import dumps, fsm_to_dict

        cache = SynthesisCache(str(tmp_path / "cache"))
        s1, _ = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", upto="cent-fsms", cache=cache
        )
        s2, manifest = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", upto="cent-fsms", cache=cache
        )
        assert manifest.record_for("cent-fsms").status == "cached"
        for name in ("cent_sync_fsm", "cent_fsm"):
            assert dumps(fsm_to_dict(s1.get(name))) == dumps(
                fsm_to_dict(s2.get(name))
            )


def _baselined_designs() -> list[str]:
    """Core designs plus the ``gen:`` designs with committed baselines."""
    from repro.benchmarks.registry import core_benchmark_names

    check_dir = Path(__file__).resolve().parents[1] / "baselines" / "check"
    generated = sorted(path.stem for path in check_dir.glob("gen:*.json"))
    return list(core_benchmark_names()) + generated


class TestFingerprintMemo:
    """The store digests each artifact once; no canned pass mutates one."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_run_fingerprints_each_artifact_once(self, monkeypatch, warm):
        import repro.pipeline.artifacts as artifacts_module

        cache = SynthesisCache()
        if warm:
            run_synthesis_pipeline(
                differential_equation(),
                "mul:2T,add:1,sub:1",
                upto="model-check",
                cache=cache,
            )
        digested = []

        def counting(artifact):
            digested.append(id(artifact))
            return artifact_fingerprint(artifact)

        monkeypatch.setattr(
            artifacts_module, "artifact_fingerprint", counting
        )
        store, manifest = run_synthesis_pipeline(
            differential_equation(),
            "mul:2T,add:1,sub:1",
            upto="model-check",
            cache=cache,
        )
        assert manifest.all_cached() is warm
        assert len(store) == 7
        assert sorted(digested) == sorted(id(store.get(n)) for n in store)

    @pytest.mark.parametrize("name", _baselined_designs())
    def test_no_canned_pass_mutates_an_artifact(self, name):
        from repro.benchmarks.registry import benchmark

        entry = benchmark(name)
        store, manifest = run_synthesis_pipeline(
            entry.dfg(), entry.allocation(), upto=None, cache=SynthesisCache()
        )
        assert len(manifest.records) == len(synthesis_passes())
        for artifact in store:
            assert store.fingerprint(artifact) == artifact_fingerprint(
                store.get(artifact)
            ), artifact


def _checksummed_envelope(payload) -> str:
    """A cache file whose checksum verifies, whatever the payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {
            "payload": payload,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    )


class TestCacheHealing:
    """A cached payload that does not rehydrate is quarantined."""

    @pytest.mark.parametrize(
        "entry_text",
        [
            # accepted by the reader as a legacy bare payload
            '{"diagnostics": []}',
            # verified, but the schedule inside is not a schedule
            _checksummed_envelope(
                {"artifacts": {"schedule": {}}, "diagnostics": []}
            ),
        ],
        ids=["bare-payload", "envelope"],
    )
    def test_undecodable_entry_quarantined_and_recomputed(
        self, tmp_path, entry_text
    ):
        from repro.benchmarks.registry import benchmark
        from repro.runtime import active_report

        entry = benchmark("fig2")
        cache_dir = str(tmp_path / "cache")
        _, cold = run_synthesis_pipeline(
            entry.dfg(), entry.allocation(), cache=SynthesisCache(cache_dir)
        )
        key = cold.record_for("schedule").cache_key
        file_path = os.path.join(cache_dir, f"{key}.syn.json")
        with open(file_path, "w") as handle:
            handle.write(entry_text)

        cache = SynthesisCache(cache_dir)
        with active_report() as report:
            _, healed = run_synthesis_pipeline(
                entry.dfg(), entry.allocation(), cache=cache
            )
        for record in healed.records:
            fresh = cold.record_for(record.name)
            assert record.inputs == fresh.inputs, record.name
            assert record.outputs == fresh.outputs, record.name
        statuses = {
            r.name: r.status for r in healed.records if r.cacheable
        }
        assert statuses.pop("schedule") == "computed"
        assert set(statuses.values()) == {"cached"}
        assert (cache.hits, cache.misses) == (4, 1)
        assert cache.quarantined == 1
        assert report.count("cache-quarantine") == 1
        assert os.path.exists(file_path + ".corrupt")
        # the recomputed pass wrote a good entry back
        _, again = run_synthesis_pipeline(
            entry.dfg(), entry.allocation(), cache=SynthesisCache(cache_dir)
        )
        assert again.all_cached()

    def test_undecodable_memory_entry_recomputed(self):
        cache = SynthesisCache()
        _, cold = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", cache=cache
        )
        key = cold.record_for("schedule").cache_key
        cache.put(key, {"diagnostics": []})
        hits, misses = cache.hits, cache.misses
        _, healed = run_synthesis_pipeline(
            fir3(), "mul:2T,add:1", cache=cache
        )
        assert healed.record_for("schedule").status == "computed"
        assert healed.record_for("order").status == "cached"
        for record in healed.records:
            assert record.outputs == cold.record_for(record.name).outputs
        assert (cache.hits - hits, cache.misses - misses) == (4, 1)
        assert set(cache.get(key)) == {"artifacts", "diagnostics"}


class TestSchedulerRegistryEntries:
    def test_force_directed_through_synthesize(self):
        """Satellite: the orphaned scheduler is reachable by name."""
        from repro import synthesize

        result = synthesize(
            differential_equation(), "mul:2T,add:1,sub:1",
            scheduler="force-directed",
        )
        # A valid resource-constrained schedule on the paper's diffeq DFG:
        # respects the allocation and the 4-step critical path.
        assert result.schedule.num_steps == 4
        usage = result.schedule.resource_usage()
        for rc, count in usage.items():
            assert count <= result.allocation.count(rc)
        # and the full flow downstream of it is intact
        assert result.distributed.describe()

    def test_force_directed_extends_horizon_for_tight_allocation(self):
        store, manifest = run_synthesis_pipeline(
            fir3(), "mul:1T,add:1", scheduler="force-directed"
        )
        (diag,) = manifest.record_for("schedule").diagnostics
        assert diag["event"] == "horizon-extended"
        assert diag["from"] == 3 and diag["to"] == 5
        assert store.get("schedule").num_steps == 5

    def test_exact_fallback_warns_and_records(self):
        """Satellite: the silent exact→list fallback is now loud."""
        with pytest.warns(SchedulingFallbackWarning, match="fell back"):
            _, manifest = run_synthesis_pipeline(
                differential_equation(), "mul:2T,add:1,sub:1",
                scheduler="exact",
                options={"schedule": {"max_visited": 0}},
            )
        (diag,) = manifest.record_for("schedule").diagnostics
        assert diag["event"] == "scheduler-fallback"
        assert diag["requested"] == "exact" and diag["used"] == "list"
        assert "exceeded 0 states" in diag["reason"]

    def test_exact_success_records_no_fallback(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", SchedulingFallbackWarning)
            _, manifest = run_synthesis_pipeline(
                differential_equation(), "mul:2T,add:1,sub:1",
                scheduler="exact",
            )
        assert manifest.record_for("schedule").diagnostics == ()

    def test_asap_rejected_when_allocation_too_small(self):
        with pytest.raises(SchedulingError, match="exceeds the allocation"):
            run_synthesis_pipeline(
                differential_equation(), "mul:2T,add:1,sub:1",
                scheduler="asap",
            )

    def test_asap_accepted_when_allocation_fits(self):
        store, _ = run_synthesis_pipeline(
            differential_equation(), "mul:4T,add:1,sub:2", scheduler="asap"
        )
        assert store.get("schedule").num_steps == 4
